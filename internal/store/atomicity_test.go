// Cross-shard atomicity checkers, extending the composed-scenario checker
// pattern (PR 2) to the store layer: concurrent CompareAndMove traffic
// with MGet snapshot audits mixed into every worker's op stream (a
// dedicated auditor can starve on small machines), plus an end-state
// audit. On every composing engine the audits must never observe a torn
// state; under the estm ablation (no outheritance) and under Unsound mode
// (compositions split into separate transactions) they are required to.
// The over-the-wire variant of this test lives in internal/server.
//
// Two robustness notes, both rooted in running on few cores:
//
//   - Workers get a bounded retry budget (Thread.MaxRetries). Under estm a
//     torn composition can corrupt a shard's structural invariants, after
//     which an operation may hit the structures' explicit window conflicts
//     on every attempt, forever; the budget turns that wedge into a
//     discarded operation instead of a hung test. Composing engines never
//     exhaust it, but the audits still check Frame.Err so an audit that
//     gave up cannot report garbage.
//
//   - The runs raise GOMAXPROCS: contended workers yield only between
//     attempts (backoff), never inside a composition, so on a single P the
//     scheduler almost never suspends a worker mid-composition and the
//     estm/unsound tear window rarely overlaps anything. Oversubscribed
//     OS threads restore genuinely interleaved executions.
package store

import (
	"math/rand/v2"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"oestm/internal/stm"
)

// tokenVal is the value every live token carries.
const tokenVal = int64(7)

// crossShardViolations drives workers against a fresh 8-shard store for
// roughly dur and returns the number of torn states the audits observed.
// Tokens start on the even keys of [0, keys); every CompareAndMove
// relocates one token, so at every atomic snapshot exactly keys/2 tokens
// exist, each with value tokenVal. ~10% of steps audit exactly that via
// an MGet snapshot of the whole keyspace.
func crossShardViolations(t *testing.T, newTM func() stm.TM, unsound bool, keys, workers int, dur time.Duration) uint64 {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(8))
	tm := newTM()
	st := New(Config{Shards: 8, Unsound: unsound})
	filler := st.NewFrame(stm.NewThread(tm))
	want := 0
	for k := 0; k < keys; k += 2 {
		filler.Put(int64(k), tokenVal)
		want++
	}

	audit := func(f *Frame, all, vals []int64, oks []bool) uint64 {
		if f.MGet(all, vals, oks); f.Err() != nil {
			f.ClearErr()
			return 0 // gave up: no consistent observation
		}
		bad := uint64(0)
		present := 0
		for k := range all {
			if oks[k] {
				present++
				if vals[k] != tokenVal {
					bad++
				}
			}
		}
		if present != want {
			bad++
		}
		return bad
	}

	var stop atomic.Bool
	var violations atomic.Uint64
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(idx int) {
			defer wg.Done()
			th := stm.NewThread(tm)
			th.MaxRetries = 500
			f := st.NewFrame(th)
			rng := rand.New(rand.NewPCG(0xced5, uint64(idx)))
			all := make([]int64, keys)
			vals := make([]int64, keys)
			oks := make([]bool, keys)
			for k := range all {
				all[k] = int64(k)
			}
			for !stop.Load() {
				if rng.IntN(100) < 10 {
					violations.Add(audit(f, all, vals, oks))
					continue
				}
				f.CompareAndMove(int64(rng.IntN(keys)), int64(rng.IntN(keys)), tokenVal)
				f.ClearErr()
			}
		}(i)
	}
	time.Sleep(dur)
	stop.Store(true)
	wg.Wait()

	// End-state audit on a quiesced store: only a torn composition can
	// change the token count for good. Sound CompareAndMove conserves it
	// even when it aborts; the unsound split (and estm's released child
	// reads) can duplicate or lose tokens permanently.
	checker := st.NewFrame(stm.NewThread(tm))
	all := make([]int64, keys)
	vals := make([]int64, keys)
	oks := make([]bool, keys)
	for k := range all {
		all[k] = int64(k)
	}
	violations.Add(audit(checker, all, vals, oks))
	return violations.Load()
}

// TestCrossShardAtomicityComposingEngines: no composing engine may ever
// let an MGet snapshot observe a CompareAndMove half-done.
func TestCrossShardAtomicityComposingEngines(t *testing.T) {
	for _, eng := range engines() {
		if eng.name == "estm" {
			continue
		}
		t.Run(eng.name, func(t *testing.T) {
			if v := crossShardViolations(t, eng.newi, false, 64, 4, 150*time.Millisecond); v != 0 {
				t.Errorf("%d torn states observed on a composing engine", v)
			}
		})
	}
}

// TestESTMViolatesCrossShardAtomicity pins that the checker detects real
// tearing: without outheritance the CompareAndMove composition loses its
// children's protection and the audits observe tokens in flight,
// duplicated, or lost.
func TestESTMViolatesCrossShardAtomicity(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-dependent concurrency test")
	}
	estm := engines()[1]
	if estm.name != "estm" {
		t.Fatal("engine table moved")
	}
	for attempt := 0; attempt < 5; attempt++ {
		dur := time.Duration(100+100*attempt) * time.Millisecond
		if v := crossShardViolations(t, estm.newi, false, 64, 4, dur); v > 0 {
			return
		}
	}
	t.Error("estm never tore a CompareAndMove; the ablation (or the checker) has gone soft")
}

// TestUnsoundStoreViolates pins the other required failure mode: with
// compositions split into separate transactions (mutators and audits
// alike), even the outheriting engine exposes torn states.
func TestUnsoundStoreViolates(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-dependent concurrency test")
	}
	oestm := engines()[0]
	for attempt := 0; attempt < 5; attempt++ {
		dur := time.Duration(100+100*attempt) * time.Millisecond
		if v := crossShardViolations(t, oestm.newi, true, 64, 4, dur); v > 0 {
			return
		}
	}
	t.Error("unsound mode never exposed a torn state; the split (or the checker) has gone soft")
}
