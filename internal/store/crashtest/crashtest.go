// Package crashtest is the durability counterpart of the store's
// atomicity checkers: it SIGKILLs a live compose-server mid-load,
// replays the write-ahead log the crash left behind, and audits the
// recovered keyspace against the workload's invariants (token
// conservation, pair sums, per-key last write). On every composing
// engine the recovered state must hold all of them; the estm and
// Unsound ablations are required to violate — the same
// must-catch-real-tearing discipline the in-memory checkers pin, pushed
// through a process boundary and a crash.
//
// The server under test runs as a child process (the test binary
// re-executed with CRASHTEST_CHILD set, dispatched by the package's
// TestMain through ChildMain), because a crash must take the page-cache
// contents and nothing else: an in-process "crash" cannot discard the
// store's memory, and a polite shutdown would flush the very tails the
// tests are about. Kill points are deterministic per case — a fixed
// acknowledged-operation threshold, with per-worker seeded generators —
// so a run reproduces its interleaving pressure even though the exact
// cut varies with scheduling.
package crashtest

import (
	"fmt"
	"os"
	"runtime"
	"strconv"
	"time"

	"oestm/internal/harness"
	"oestm/internal/server"
	"oestm/internal/stm"
	"oestm/internal/store"
	"oestm/internal/wal"
)

// TokenVal is the value every live token carries, mirroring the store
// checkers.
const TokenVal = int64(7)

// Child environment: ChildMain reads these, spawn (in the tests) sets
// them.
const (
	envChild   = "CRASHTEST_CHILD"
	envEngine  = "CRASHTEST_ENGINE"
	envShards  = "CRASHTEST_SHARDS"
	envWALDir  = "CRASHTEST_WALDIR"
	envUnsound = "CRASHTEST_UNSOUND"
	envRetries = "CRASHTEST_RETRIES"
	envSnapMS  = "CRASHTEST_SNAP_MS"
	envExec    = "CRASHTEST_EXEC"
	envBoost   = "CRASHTEST_BOOST"
)

// addrPrefix is the line the child prints once it is serving; the
// parent scans for it to learn the ephemeral address.
const addrPrefix = "CRASHTEST_ADDR="

// ChildMain is the crash-target server process: when the child
// environment is set it builds the configured compose-server, prints
// its address, and serves until killed (it never exits on its own —
// the parent's SIGKILL is the test). It reports whether it ran, so the
// package's TestMain can dispatch before any test executes.
func ChildMain() bool {
	if os.Getenv(envChild) != "1" {
		return false
	}
	// Oversubscribe the likely 1-CPU CI box: workers yield only between
	// transaction attempts, so on a single P the kill rarely lands inside
	// anything interesting (same rationale as the atomicity checkers).
	runtime.GOMAXPROCS(8)
	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "crashtest child:", err)
		os.Exit(1)
	}
	eng, ok := harness.EngineByName(os.Getenv(envEngine))
	if !ok {
		fail(fmt.Errorf("unknown engine %q", os.Getenv(envEngine)))
	}
	shards, err := strconv.Atoi(os.Getenv(envShards))
	if err != nil {
		fail(err)
	}
	retries, err := strconv.Atoi(os.Getenv(envRetries))
	if err != nil {
		fail(err)
	}
	snapMS, err := strconv.Atoi(os.Getenv(envSnapMS))
	if err != nil {
		fail(err)
	}
	// Boost defaults off in the crash children (matching the server
	// Config zero value) so the established cases keep their exact
	// behavior; the add-burst case opts in explicitly.
	boost := store.BoostOff
	if b := os.Getenv(envBoost); b != "" {
		boost, err = store.ParseBoostMode(b)
		if err != nil {
			fail(err)
		}
	}
	srv, err := server.New(server.Config{
		Addr:    "127.0.0.1:0",
		Engine:  eng.Name,
		NewTM:   eng.New,
		Shards:  shards,
		Unsound: os.Getenv(envUnsound) == "1",
		// The retry budget ships from day one: under the ablations a torn
		// composition can corrupt a shard's structure and wedge a later
		// request in a permanent conflict loop — the budget turns that
		// into a typed error the workers tolerate.
		MaxRetries: retries,
		WALDir:     os.Getenv(envWALDir),
		// fsync off: acknowledged writes live in the page cache, which
		// SIGKILL does not touch — exactly the durability these tests
		// exercise — and the suite stays fast.
		Fsync:         false,
		SnapshotEvery: time.Duration(snapMS) * time.Millisecond,
		// The execution model under crash: conn when unset, batch for the
		// speculative-executor cases. Four workers regardless of the box so
		// batches genuinely interleave commit jobs with the kill.
		Exec:         os.Getenv(envExec),
		BatchWorkers: 4,
		Boost:        boost,
	})
	if err != nil {
		fail(err)
	}
	if err := srv.Start(); err != nil {
		fail(err)
	}
	fmt.Printf("%s%s\n", addrPrefix, srv.Addr())
	select {} // hold the server up until the parent's SIGKILL
}

// Recovered replays the WAL directory a crashed server left behind into
// a fresh engine-backed store and returns an audit frame over it plus
// the replay itself. It scans read-only (no truncation), so audits can
// re-run and corruption injections stay where the test put them.
func Recovered(engine, dir string) (*store.Frame, *wal.Replay, error) {
	eng, ok := harness.EngineByName(engine)
	if !ok {
		return nil, nil, fmt.Errorf("crashtest: unknown engine %q", engine)
	}
	rp, err := wal.Scan(dir)
	if err != nil {
		return nil, nil, err
	}
	st := store.New(store.Config{Shards: rp.Shards})
	th := stm.NewThread(eng.New())
	st.Recover(th, rp)
	return st.NewFrame(th), rp, nil
}

// AuditTokens checks token conservation over keys [0, keys): every
// present value must be TokenVal and exactly keys/2 tokens must exist
// (the workload only relocates them). It returns the violation count
// and how many tokens were found.
func AuditTokens(f *store.Frame, keys int) (violations, present int) {
	all := make([]int64, keys)
	vals := make([]int64, keys)
	oks := make([]bool, keys)
	for k := range all {
		all[k] = int64(k)
	}
	if f.MGet(all, vals, oks); f.Err() != nil {
		return 1, 0 // a quiesced audit must not give up
	}
	for k := range all {
		if oks[k] {
			present++
			if vals[k] != TokenVal {
				violations++
			}
		}
	}
	if present != keys/2 {
		violations++
	}
	return violations, present
}

// KeptRecords counts the surviving log records — the non-vacuity
// check: a crash audit over an empty log proves nothing.
func KeptRecords(rp *wal.Replay) int { return len(rp.Records) }
