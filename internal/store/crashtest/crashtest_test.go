// Crash-recovery tests: SIGKILL the child server mid-load, replay the
// WAL it left, audit the invariants. See the package comment for the
// architecture (re-exec child, deterministic kill thresholds, seeded
// workers).
package crashtest

import (
	"bufio"
	"fmt"
	"math/rand/v2"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"oestm/internal/server"
	"oestm/internal/wal"
	"oestm/internal/wire"
)

func TestMain(m *testing.M) {
	if ChildMain() {
		return // unreachable (ChildMain blocks), but keeps the contract clear
	}
	runtime.GOMAXPROCS(8)
	os.Exit(m.Run())
}

// child is a running crash-target server process.
type child struct {
	cmd  *exec.Cmd
	addr string
	dir  string // its WAL directory
}

// spawn re-executes the test binary as a crash-target server and waits
// for its address line.
func spawn(t *testing.T, engine string, shards int, unsound bool, dir string) *child {
	t.Helper()
	return spawnExec(t, engine, shards, unsound, dir, "")
}

// spawnExec is spawn with an explicit execution model ("" = the server
// default, conn; "batch" = the speculative batch executor).
func spawnExec(t *testing.T, engine string, shards int, unsound bool, dir, execMode string) *child {
	t.Helper()
	return spawnBoost(t, engine, shards, unsound, dir, execMode, "")
}

// spawnBoost is spawnExec with an explicit boost mode for the
// commutative hot-key path ("" = off, the crash children's default).
func spawnBoost(t *testing.T, engine string, shards int, unsound bool, dir, execMode, boost string) *child {
	t.Helper()
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(),
		envChild+"=1",
		envEngine+"="+engine,
		fmt.Sprintf("%s=%d", envShards, shards),
		envWALDir+"="+dir,
		fmt.Sprintf("%s=%d", envRetries, 500),
		fmt.Sprintf("%s=%d", envUnsound, b2i(unsound)),
		envSnapMS+"=0",
		envExec+"="+execMode,
		envBoost+"="+boost,
	)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	c := &child{cmd: cmd, dir: dir}
	t.Cleanup(func() { c.kill() })
	sc := bufio.NewScanner(stdout)
	for sc.Scan() {
		if a, ok := strings.CutPrefix(sc.Text(), addrPrefix); ok {
			c.addr = a
			return c
		}
	}
	cmd.Process.Kill()
	cmd.Wait()
	t.Fatalf("child exited before printing an address (scan err: %v)", sc.Err())
	return nil
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// kill SIGKILLs the child — the crash under test — and reaps it. Safe
// to call twice.
func (c *child) kill() {
	if c.cmd.ProcessState == nil {
		c.cmd.Process.Kill()
		c.cmd.Wait()
	}
}

// dialChild connects to the child, retrying briefly (the address was
// printed before accept loops necessarily scheduled).
func dialChild(t *testing.T, c *child) *server.Client {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		cl, err := server.DialTimeout(c.addr, time.Second)
		if err == nil {
			return cl
		}
		if time.Now().After(deadline) {
			t.Fatalf("dial %s: %v", c.addr, err)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// ignorable reports whether a load-worker error is expected traffic
// noise rather than a test failure: retry-budget exhaustion (the
// ablations' liveness guard, on any opcode) keeps the worker going,
// anything else — the kill tearing the connection down — ends it
// cleanly.
func ignorable(err error) bool {
	pe, ok := wire.IsProtocolError(err)
	return ok && pe.Code == wire.ErrRetryExhausted
}

// tokenCrash is the core scenario: seed keys/2 tokens, hammer the child
// with CompareAndMove traffic (10% of steps audit the live keyspace
// with an MGet snapshot), SIGKILL it once killAfter operations were
// acknowledged, and recover. It returns the live violations the audits
// observed, the recovered-keyspace violations, and the replay.
func tokenCrash(t *testing.T, engine string, unsound bool, keys, workers, killAfter int, seed uint64) (liveViol uint64, recViol int, rp *wal.Replay) {
	t.Helper()
	dir := t.TempDir()
	ch := spawn(t, engine, 8, unsound, dir)

	seeder := dialChild(t, ch)
	for k := 0; k < keys; k += 2 {
		if _, err := seeder.Put(int64(k), TokenVal); err != nil {
			t.Fatalf("seed put %d: %v", k, err)
		}
	}
	seeder.Close()

	var (
		acked atomic.Int64
		viol  atomic.Uint64
		wg    sync.WaitGroup
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			cl := dialChild(t, ch)
			defer cl.Close()
			rng := rand.New(rand.NewPCG(seed, uint64(w)))
			all := make([]int64, keys)
			for k := range all {
				all[k] = int64(k)
			}
			for {
				if rng.IntN(100) < 10 {
					vals, oks, err := cl.MGet(all)
					if err != nil {
						if ignorable(err) {
							continue
						}
						return // the kill
					}
					bad := uint64(0)
					present := 0
					for k := range vals {
						if oks[k] {
							present++
							if vals[k] != TokenVal {
								bad++
							}
						}
					}
					if present != keys/2 {
						bad++
					}
					viol.Add(bad)
					continue
				}
				_, err := cl.CompareAndMove(int64(rng.IntN(keys)), int64(rng.IntN(keys)), TokenVal)
				if err != nil {
					if ignorable(err) {
						continue
					}
					return // the kill
				}
				acked.Add(1)
			}
		}(w)
	}

	// The deterministic kill point: the crash lands after exactly (at
	// least) killAfter acknowledged — hence durable — operations.
	deadline := time.Now().Add(30 * time.Second)
	for acked.Load() < int64(killAfter) {
		if time.Now().After(deadline) {
			ch.kill()
			wg.Wait()
			t.Fatalf("only %d ops acknowledged before deadline", acked.Load())
		}
		time.Sleep(time.Millisecond)
	}
	ch.kill()
	wg.Wait()

	f, rp, err := Recovered(engine, dir)
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	if kept := KeptRecords(rp); kept <= keys/2 {
		t.Fatalf("vacuous crash: only %d records survived (seeds alone are %d)", kept, keys/2)
	}
	recViol, _ = AuditTokens(f, keys)
	return viol.Load(), recViol, rp
}

// TestCrashRecoveryComposingEngines: on every composing engine, a
// SIGKILL mid-load must lose nothing it acknowledged and tear nothing —
// zero violations live (atomic snapshots during load) and zero in the
// recovered keyspace (token count and values exact after replay).
func TestCrashRecoveryComposingEngines(t *testing.T) {
	for _, eng := range []string{"oestm", "lsa", "tl2", "swisstm"} {
		t.Run(eng, func(t *testing.T) {
			live, rec, rp := tokenCrash(t, eng, false, 64, 4, 400, 0xced5)
			if live != 0 {
				t.Errorf("%d torn states observed live on a composing engine", live)
			}
			if rec != 0 {
				t.Errorf("%d violations in the recovered keyspace (%s)", rec, rp.Summary())
			}
		})
	}
}

// TestUnsoundCrashViolates pins that the audit catches real tearing:
// with compositions split into separately logged transactions, the
// recovered keyspace is required to violate token conservation —
// concurrent split CompareAndMoves duplicate tokens (two workers read
// the same source, pass their destination checks, and each puts the
// token somewhere else) and the pieces land on disk individually, so
// the crash preserves the tear. The duplication needs two workers on
// the SAME source with DIFFERENT destinations inside the split window,
// so this case runs a deliberately tiny keyspace at 2× worker
// oversubscription — maximal source collisions — with the usual
// escalation ladder on top.
func TestUnsoundCrashViolates(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-dependent multi-process test")
	}
	for attempt := 0; attempt < 5; attempt++ {
		_, rec, _ := tokenCrash(t, "oestm", true, 8, 8, 400+400*attempt, uint64(0xbad0+attempt))
		if rec > 0 {
			return
		}
	}
	t.Error("unsound mode never left a torn state in the recovered keyspace; the ablation (or the audit) has gone soft")
}

// TestESTMCrashRecoveredClean documents and pins a finding of the
// durability layer: the estm ablation cannot tear under it. estm's
// violation channel is a released-read race — a child's reads lose
// their protection at child commit, so a CONCURRENT WRITER can slip a
// conflicting commit under the parent (the live checkers in
// internal/store and internal/server pin that it fires, WAL off). The
// WAL's commit-lock protocol serializes every logged mutator per
// participant shard for the whole composed transaction, which excludes
// exactly that writer; and since child writes stay buffered in the
// top-level transaction until its commit on every engine, lock-free
// snapshot readers cannot observe mid-composition states either. The
// crash suite therefore requires estm to come out CLEAN — live and
// recovered — under durability, and keeps the unsound ablation (whose
// split pieces are locked and logged individually, re-opening the
// races) as the required-fire checker for the recovered keyspace
// (TestUnsoundCrashViolates). If this test ever observes a tear, the
// commit-lock serialization has been weakened — which would also break
// the two-phase logging protocol's assumptions — so a failure here is
// a durability bug, not a checker gone soft.
func TestESTMCrashRecoveredClean(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-dependent multi-process test")
	}
	if v := shuttleViolations(t, "estm", 4000); v != 0 {
		t.Errorf("%d torn observations on estm under WAL serialization; the commit-lock protocol has been weakened", v)
	}
}

// shuttleViolations runs the focused two-key shuttle against engine
// until roughly audits snapshots have been taken, then SIGKILLs and
// recovers. It returns the live torn observations; whatever the kill
// interrupted, the recovered keyspace must still hold exactly one
// token (the log only ever carries complete compositions).
func shuttleViolations(t *testing.T, engine string, audits int) uint64 {
	t.Helper()
	dir := t.TempDir()
	ch := spawn(t, engine, 8, false, dir)

	seeder := dialChild(t, ch)
	if _, err := seeder.Put(0, TokenVal); err != nil {
		t.Fatalf("seed: %v", err)
	}
	seeder.Close()

	var (
		done    atomic.Bool
		audited atomic.Int64
		viol    atomic.Uint64
		wg      sync.WaitGroup
	)
	wg.Add(2)
	go func() { // the mover: shuttle the token 0 <-> 1 forever
		defer wg.Done()
		cl := dialChild(t, ch)
		defer cl.Close()
		at := int64(0)
		for !done.Load() {
			moved, err := cl.CompareAndMove(at, 1-at, TokenVal)
			if err != nil {
				if ignorable(err) {
					continue
				}
				return
			}
			if moved {
				at = 1 - at
			}
		}
	}()
	go func() { // the auditor: lock-free snapshots of both slots
		defer wg.Done()
		cl := dialChild(t, ch)
		defer cl.Close()
		keys := []int64{0, 1}
		for !done.Load() {
			vals, oks, err := cl.MGet(keys)
			if err != nil {
				if ignorable(err) {
					continue
				}
				return
			}
			present := 0
			for i := range vals {
				if oks[i] {
					present++
					if vals[i] != TokenVal {
						viol.Add(1)
					}
				}
			}
			if present != 1 {
				viol.Add(1)
			}
			audited.Add(1)
		}
	}()

	deadline := time.Now().Add(30 * time.Second)
	for audited.Load() < int64(audits) && viol.Load() == 0 {
		if time.Now().After(deadline) {
			break
		}
		time.Sleep(time.Millisecond)
	}
	done.Store(true)
	ch.kill()
	wg.Wait()

	f, _, err := Recovered(engine, dir)
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	if v, present := AuditTokens(f, 2); v != 0 {
		t.Errorf("recovered keyspace torn on %s: %d violations, %d tokens (the log must only carry complete compositions)",
			engine, v, present)
	}
	return viol.Load()
}

// TestShuttleCleanOnComposingEngine: the same focused shuttle must stay
// clean on the outheriting engine — pinning that the estm detections
// above are the ablation's tearing, not an artifact of the harness.
func TestShuttleCleanOnComposingEngine(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-dependent multi-process test")
	}
	if v := shuttleViolations(t, "oestm", 4000); v != 0 {
		t.Errorf("%d torn observations on a composing engine", v)
	}
}

// addBurst is the SIGKILL-mid-add-burst scenario: workers blast
// positive integer deltas at a small hot-key set — 70% single-key Add,
// 30% cross-shard MAdd over three keys — tracking per-key acknowledged
// sums and each worker's in-flight deltas. Once killAfter operations
// are acknowledged the child is SIGKILLed and the WAL recovered; every
// key must then hold at least its acknowledged sum (deltas are
// positive, so a lost acknowledged add shows as a shortfall) and at
// most that plus the deltas in flight at the kill (logged but
// unacknowledged is allowed, lost or duplicated is not).
func addBurst(t *testing.T, engine, execMode, boost string, killAfter int, seed uint64) {
	t.Helper()
	const nkeys = 8
	const workers = 4
	dir := t.TempDir()
	ch := spawnBoost(t, engine, 8, false, dir, execMode, boost)

	var (
		acked   [nkeys]atomic.Int64
		pending [workers][nkeys]int64 // owned by each worker until wg.Wait
		ops     atomic.Int64
		wg      sync.WaitGroup
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			cl := dialChild(t, ch)
			defer cl.Close()
			rng := rand.New(rand.NewPCG(seed, uint64(w)))
			keys := make([]int64, 3)
			deltas := make([]int64, 3)
			pend := &pending[w]
			for {
				if rng.IntN(100) < 70 {
					k := rng.IntN(nkeys)
					d := int64(rng.IntN(50) + 1)
					pend[k] = d
					err := cl.Add(int64(k), d)
					if err == nil {
						acked[k].Add(d)
						ops.Add(1)
					} else if !ignorable(err) {
						return // the kill: pend[k] stays in flight
					}
					pend[k] = 0 // retry exhaustion: not committed, not logged
					continue
				}
				base := rng.IntN(nkeys)
				for i := range keys {
					k := (base + i*3) % nkeys
					keys[i] = int64(k)
					deltas[i] = int64(rng.IntN(50) + 1)
					pend[k] += deltas[i]
				}
				err := cl.MAdd(keys, deltas)
				if err == nil {
					for i := range keys {
						acked[keys[i]].Add(deltas[i])
					}
					ops.Add(1)
				} else if !ignorable(err) {
					return // the kill: the madd's deltas stay in flight
				}
				for i := range keys {
					pend[keys[i]] = 0
				}
			}
		}(w)
	}

	deadline := time.Now().Add(30 * time.Second)
	for ops.Load() < int64(killAfter) {
		if time.Now().After(deadline) {
			ch.kill()
			wg.Wait()
			t.Fatalf("only %d add ops acknowledged before deadline", ops.Load())
		}
		time.Sleep(time.Millisecond)
	}
	// Non-vacuity: with boosting requested, the burst must actually have
	// run boosted before the crash lands.
	if boost == "on" {
		cl := dialChild(t, ch)
		var p wire.StatsPayload
		if err := cl.Stats(&p); err == nil && p.BoostedOps == 0 {
			t.Errorf("boost=on child served %d adds with zero boosted ops", p.Adds)
		}
		cl.Close()
	}
	ch.kill()
	wg.Wait()

	f, rp, err := Recovered(engine, dir)
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	if kept := KeptRecords(rp); kept == 0 {
		t.Fatal("vacuous crash: no records survived")
	}
	for k := 0; k < nkeys; k++ {
		lower := acked[k].Load()
		upper := lower
		for w := 0; w < workers; w++ {
			upper += pending[w][k]
		}
		got, ok := f.Get(int64(k))
		if !ok {
			got = 0
		}
		if got < lower || got > upper {
			t.Errorf("key %d: recovered sum %d outside [acked %d, acked+inflight %d]", k, got, lower, upper)
		}
	}
}

// TestCrashRecoveryAddBurst: on every composing engine, a SIGKILL mid
// add-burst with the boosted hot-key path on must lose no acknowledged
// delta — the recovered sums are exact up to the in-flight window.
func TestCrashRecoveryAddBurst(t *testing.T) {
	for _, eng := range []string{"oestm", "lsa", "tl2", "swisstm"} {
		t.Run(eng, func(t *testing.T) {
			addBurst(t, eng, "", "on", 400, 0xadd0)
		})
	}
}

// TestCrashRecoveryAddBurstBatch runs the add burst through the
// speculative batch executor: blind delta entries commit through the
// applier and log as add records (plain) or delta effects (composed),
// and replay must reproduce the acknowledged sums just the same.
func TestCrashRecoveryAddBurstBatch(t *testing.T) {
	addBurst(t, "oestm", "batch", "", 400, 0xadd1)
}

// pairSum is the bank-account invariant of the MPut scenario.
const pairSum = int64(1000)

// TestCrashRecoveryPairSums: workers rebalance disjoint pairs with
// atomic MPuts ([a,b] -> [v, pairSum-v]); whatever the kill interrupts,
// every recovered pair must still be complete and sum to pairSum — a
// torn MPut on disk is exactly what the two-phase intent/commit
// protocol exists to prevent.
func TestCrashRecoveryPairSums(t *testing.T) {
	const (
		pairsPerWorker = 8
		workers        = 4
		killAfter      = 300
		base           = int64(100_000)
	)
	dir := t.TempDir()
	ch := spawn(t, "oestm", 8, false, dir)

	seeder := dialChild(t, ch)
	npairs := pairsPerWorker * workers
	for p := 0; p < npairs; p++ {
		a, b := base+int64(2*p), base+int64(2*p)+1
		if err := seeder.MPut([]int64{a, b}, []int64{pairSum, 0}); err != nil {
			t.Fatalf("seed pair %d: %v", p, err)
		}
	}
	seeder.Close()

	var (
		acked atomic.Int64
		wg    sync.WaitGroup
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			cl := dialChild(t, ch)
			defer cl.Close()
			rng := rand.New(rand.NewPCG(0x9a17, uint64(w)))
			for {
				p := w*pairsPerWorker + rng.IntN(pairsPerWorker) // disjoint ownership
				a, b := base+int64(2*p), base+int64(2*p)+1
				v := int64(rng.IntN(int(pairSum) + 1))
				if err := cl.MPut([]int64{a, b}, []int64{v, pairSum - v}); err != nil {
					if ignorable(err) {
						continue
					}
					return
				}
				acked.Add(1)
			}
		}(w)
	}
	deadline := time.Now().Add(30 * time.Second)
	for acked.Load() < killAfter {
		if time.Now().After(deadline) {
			ch.kill()
			wg.Wait()
			t.Fatalf("only %d MPuts acknowledged before deadline", acked.Load())
		}
		time.Sleep(time.Millisecond)
	}
	ch.kill()
	wg.Wait()

	f, rp, err := Recovered("oestm", dir)
	if err != nil {
		t.Fatal(err)
	}
	if kept := KeptRecords(rp); kept <= npairs {
		t.Fatalf("vacuous crash: %d records survived", kept)
	}
	vals := make([]int64, 2)
	oks := make([]bool, 2)
	for p := 0; p < npairs; p++ {
		a, b := base+int64(2*p), base+int64(2*p)+1
		if f.MGet([]int64{a, b}, vals, oks); f.Err() != nil {
			t.Fatalf("pair %d: audit gave up: %v", p, f.Err())
		}
		if !oks[0] || !oks[1] {
			t.Errorf("pair %d: half missing after recovery (present: %v %v)", p, oks[0], oks[1])
			continue
		}
		if vals[0]+vals[1] != pairSum {
			t.Errorf("pair %d: sum %d after recovery, want %d", p, vals[0]+vals[1], pairSum)
		}
	}
}

// TestCrashRecoveryLastWrite: one connection issues strictly sequential
// puts; after the kill, every key must hold exactly its last
// acknowledged value — or the one write that was in flight when the
// crash hit (logged but unacknowledged is allowed; acknowledged but
// lost, or reordered, is not).
func TestCrashRecoveryLastWrite(t *testing.T) {
	const (
		nkeys     = 16
		killAfter = 500
	)
	dir := t.TempDir()
	ch := spawn(t, "oestm", 8, false, dir)

	lastAcked := make([]int64, nkeys)
	var pendingKey, pendingVal int64 = -1, 0
	var acked atomic.Int64
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		cl := dialChild(t, ch)
		defer cl.Close()
		v := int64(0)
		for {
			v++
			k := v % nkeys
			pendingKey, pendingVal = k, v // owned by this goroutine until wg.Wait
			if _, err := cl.Put(k, v); err != nil {
				return // the kill: (k, v) stays the in-flight write
			}
			lastAcked[k] = v
			acked.Add(1)
		}
	}()
	deadline := time.Now().Add(30 * time.Second)
	for acked.Load() < killAfter {
		if time.Now().After(deadline) {
			ch.kill()
			wg.Wait()
			t.Fatalf("only %d puts acknowledged before deadline", acked.Load())
		}
		time.Sleep(time.Millisecond)
	}
	ch.kill()
	wg.Wait()

	f, _, err := Recovered("oestm", dir)
	if err != nil {
		t.Fatal(err)
	}
	for k := int64(0); k < nkeys; k++ {
		got, ok := f.Get(k)
		if !ok {
			if lastAcked[k] == 0 {
				continue // never written (v starts at 1, key 0 lags one lap)
			}
			t.Errorf("key %d missing after recovery; last acknowledged value %d", k, lastAcked[k])
			continue
		}
		if got == lastAcked[k] || (k == pendingKey && got == pendingVal) {
			continue
		}
		t.Errorf("key %d = %d after recovery, want last acknowledged %d (in flight: key %d = %d)",
			k, got, lastAcked[k], pendingKey, pendingVal)
	}
}
