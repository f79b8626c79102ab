// Batch-mode crash cases: the speculative batch executor must leave the
// same kind of write-ahead log behind as goroutine-per-connection
// execution — complete compositions only, records in arrival order —
// because recovery is mode-blind: it replays whatever is on disk into a
// fresh store. These tests SIGKILL a -exec=batch child mid-pipeline and
// pin both halves of that contract.
package crashtest

import (
	"math/rand/v2"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"oestm/internal/wire"
)

// TestBatchCrashCommitOrder pins that WAL commit order equals batch
// order. One connection streams pipelined bursts of strictly sequential
// puts over a tiny key set, so every batch carries several writes to
// every key; the executor speculates them in parallel but must log each
// key's writes in submission order. After the kill, each recovered key
// must hold a value at least as new as its last acknowledged write and
// no newer than its last submitted one — a stale value under an
// acknowledged newer write is exactly what out-of-order commit (a
// speculative attempt's value logged instead of the final one, or batch
// slots committed out of sequence) would leave on disk.
func TestBatchCrashCommitOrder(t *testing.T) {
	const (
		nkeys     = 4
		depth     = 16 // each burst writes each key depth/nkeys times
		killAfter = 200
	)
	dir := t.TempDir()
	ch := spawnExec(t, "oestm", 8, false, dir, "batch")

	lastAcked := make([]int64, nkeys)
	maxSubmitted := make([]int64, nkeys)
	var ackedBursts atomic.Int64
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		cl := dialChild(t, ch)
		defer cl.Close()
		reqs := make([]wire.Request, depth)
		resps := make([]wire.Response, depth)
		v := int64(0)
		for {
			for i := range reqs {
				v++
				reqs[i] = wire.Request{Op: wire.OpPut, Key: v % nkeys, Val: v}
				maxSubmitted[v%nkeys] = v // owned by this goroutine until wg.Wait
			}
			if err := cl.Pipeline(reqs, resps); err != nil {
				return // the kill; the burst stays in flight
			}
			for i := range reqs {
				lastAcked[reqs[i].Key] = reqs[i].Val
			}
			ackedBursts.Add(1)
		}
	}()
	deadline := time.Now().Add(30 * time.Second)
	for ackedBursts.Load() < killAfter {
		if time.Now().After(deadline) {
			ch.kill()
			wg.Wait()
			t.Fatalf("only %d bursts acknowledged before deadline", ackedBursts.Load())
		}
		time.Sleep(time.Millisecond)
	}
	ch.kill()
	wg.Wait()

	f, rp, err := Recovered("oestm", dir)
	if err != nil {
		t.Fatal(err)
	}
	if kept := KeptRecords(rp); kept < killAfter*depth {
		t.Fatalf("vacuous crash: %d records survived, %d were acknowledged", kept, killAfter*depth)
	}
	for k := int64(0); k < nkeys; k++ {
		got, ok := f.Get(k)
		if !ok {
			t.Errorf("key %d missing after recovery; last acknowledged value %d", k, lastAcked[k])
			continue
		}
		if got%nkeys != k {
			t.Errorf("key %d = %d after recovery: value belongs to key %d", k, got, got%nkeys)
		}
		if got < lastAcked[k] {
			t.Errorf("key %d = %d after recovery, older than acknowledged %d: batch commit order diverged from submission order",
				k, got, lastAcked[k])
		}
		if got > maxSubmitted[k] {
			t.Errorf("key %d = %d after recovery, newer than anything submitted (%d)", k, got, maxSubmitted[k])
		}
	}
}

// TestBatchCrashRecoveryTokens is the token-conservation crash audit
// against a batch-mode child: pipelined CompareAndMove bursts (with
// interleaved MGet snapshot audits) on every composing engine, SIGKILL
// after a fixed acknowledged budget, then replay. The recovered keyspace
// must conserve tokens exactly — batch execution stages cross-shard
// compositions through the same two-phase intent/commit records as conn
// mode, so a crash can never land half a move on disk.
func TestBatchCrashRecoveryTokens(t *testing.T) {
	const (
		keys      = 64
		workers   = 4
		depth     = 8
		killAfter = 400
	)
	for _, eng := range []string{"oestm", "lsa", "tl2", "swisstm"} {
		t.Run(eng, func(t *testing.T) {
			dir := t.TempDir()
			ch := spawnExec(t, eng, 8, false, dir, "batch")

			seeder := dialChild(t, ch)
			for k := 0; k < keys; k += 2 {
				if _, err := seeder.Put(int64(k), TokenVal); err != nil {
					t.Fatalf("seed put %d: %v", k, err)
				}
			}
			seeder.Close()

			all := make([]int64, keys)
			for k := range all {
				all[k] = int64(k)
			}
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
					rng := rand.New(rand.NewPCG(0xba7c, uint64(w)))
					reqs := make([]wire.Request, depth)
					resps := make([]wire.Response, depth)
					for {
						for i := range reqs {
							q := &reqs[i]
							q.Keys = q.Keys[:0]
							if rng.IntN(100) < 10 {
								q.Op = wire.OpMGet
								q.Keys = append(q.Keys, all...)
							} else {
								q.Op = wire.OpCompareAndMove
								q.Key = int64(rng.IntN(keys))
								q.To = int64(rng.IntN(keys))
								q.Val = TokenVal
							}
						}
						if err := cl.Pipeline(reqs, resps); err != nil {
							return // the kill
						}
						for i := range resps {
							if resps[i].Status == wire.StatusErr {
								if resps[i].Err != wire.ErrRetryExhausted {
									viol.Add(1)
								}
								continue
							}
							if reqs[i].Op == wire.OpCompareAndMove {
								acked.Add(1)
								continue
							}
							present := 0
							for k := range all {
								if resps[i].Present[k] {
									present++
									if resps[i].Vals[k] != TokenVal {
										viol.Add(1)
									}
								}
							}
							if present != keys/2 {
								viol.Add(1)
							}
						}
					}
				}(w)
			}
			deadline := time.Now().Add(30 * time.Second)
			for acked.Load() < killAfter {
				if time.Now().After(deadline) {
					ch.kill()
					wg.Wait()
					t.Fatalf("only %d moves acknowledged before deadline", acked.Load())
				}
				time.Sleep(time.Millisecond)
			}
			ch.kill()
			wg.Wait()

			if v := viol.Load(); v != 0 {
				t.Errorf("%d torn or failed observations live under batch execution", v)
			}
			f, rp, err := Recovered(eng, dir)
			if err != nil {
				t.Fatalf("recover: %v", err)
			}
			if kept := KeptRecords(rp); kept <= keys/2 {
				t.Fatalf("vacuous crash: only %d records survived", kept)
			}
			if rec, present := AuditTokens(f, keys); rec != 0 {
				t.Errorf("%d violations in the recovered keyspace (%d tokens)", rec, present)
			}
		})
	}
}
