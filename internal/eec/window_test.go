package eec_test

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"oestm/internal/eec"
	"oestm/internal/stm"
)

// TestRemoveHarvestExactSum pins the fixed order of SkipListMap.remove:
// mark check, value read, then at once the marking write. Workers loop a
// composed increment (Get, then Put of the value plus one) on one key
// with a tall tower, while a harvester loops Remove on that key and adds
// up what it removes. Every increment lands exactly once: in a harvested
// value or in what is left. If remove read the value before a longer run
// of link reads, the value would slide out of the two-read elastic window
// before the first write, and a removal could commit a stale harvest
// (increments lost).
func TestRemoveHarvestExactSum(t *testing.T) {
	const key, workers, perWorker = 8, 4, 3000
	for name, mk := range composableEngines() {
		t.Run(name, func(t *testing.T) {
			tm := mk()
			m := eec.NewSkipListMap()
			setup := stm.NewThread(tm)
			// Neighbours of every allocation shape on both sides.
			for k := 0; k < 2*key; k++ {
				if k != key {
					eec.PutHeight(m, setup, k, 1+k%5, 0)
				}
			}
			var adders sync.WaitGroup
			for w := 0; w < workers; w++ {
				adders.Add(1)
				go func() {
					defer adders.Done()
					th := guarded(tm)
					for i := 0; i < perWorker; i++ {
						_ = th.Atomic(eec.OpKind(th), func(stm.Tx) error {
							v, _ := m.Get(th, key)
							eec.PutHeight(m, th, key, eec.MaxLevel, v+1)
							return nil
						})
						if th.Err() != nil {
							t.Errorf("increment %d: %v", i, th.Err())
							return
						}
					}
				}()
			}
			var harvested int64
			var done atomic.Bool
			var harvester sync.WaitGroup
			harvester.Add(1)
			go func() {
				defer harvester.Done()
				th := guarded(tm)
				for !done.Load() && th.Err() == nil {
					if v, ok := m.Remove(th, key); ok {
						harvested += v
					}
					runtime.Gosched()
				}
				if th.Err() != nil {
					t.Errorf("harvest: %v", th.Err())
				}
			}()
			adders.Wait()
			done.Store(true)
			harvester.Wait()
			rest, _ := m.Get(setup, key)
			if got := harvested + rest; got != workers*perWorker {
				t.Fatalf("harvested %d + remaining %d = %d, want %d increments", harvested, rest, got, workers*perWorker)
			}
			if err := eec.CheckMapMarks(m, nil); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestComposedAdjacentPairs is the SkipListSet analogue: worker w owns the
// adjacent keys 2w and 2w+1 and toggles both in one composed transaction
// (Contains, then Add or Remove, per key), with towers of every shape. So
// the predecessor of nearly every update is a node another worker is
// concurrently inserting or removing. An auditor checks that every atomic
// snapshot holds each pair whole or not at all, and the final contents
// must match the workers' own models exactly.
func TestComposedAdjacentPairs(t *testing.T) {
	const workers, perWorker = 4, 1000
	heights := []int{1, 2, 3, 4, 5, eec.MaxLevel}
	for name, mk := range composableEngines() {
		t.Run(name, func(t *testing.T) {
			tm := mk()
			s := eec.NewSkipListSet()
			present := make([]bool, workers) // each worker's model of its pair
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					th := guarded(tm)
					for i := 0; i < perWorker; i++ {
						h := heights[(i+w)%len(heights)]
						if err := th.Atomic(eec.OpKind(th), func(stm.Tx) error {
							for _, k := range []int{2 * w, 2*w + 1} {
								if s.Contains(th, k) {
									s.Remove(th, k)
								} else {
									eec.AddHeight(s, th, k, h)
								}
							}
							return nil
						}); err != nil {
							t.Errorf("worker %d, toggle %d: %v", w, i, err)
							return
						}
						present[w] = !present[w]
					}
				}(w)
			}
			var done atomic.Bool
			var auditErr error
			var auditor sync.WaitGroup
			auditor.Add(1)
			go func() {
				defer auditor.Done()
				th := stm.NewThread(tm)
				for !done.Load() && auditErr == nil {
					auditErr = wholePairs(s.Elements(th))
				}
			}()
			wg.Wait()
			done.Store(true)
			auditor.Wait()
			if auditErr != nil {
				t.Fatal(auditErr)
			}
			var want []int
			for w, in := range present {
				if in {
					want = append(want, 2*w, 2*w+1)
				}
			}
			got := s.Elements(stm.NewThread(tm))
			if !slices.Equal(got, want) {
				t.Fatalf("set holds %v, the workers' models %v", got, want)
			}
			if err := eec.CheckSetMarks(s, nil); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// guarded returns a thread whose Atomic calls give up after 2000
// attempts, so a wedged structure fails the test (Thread.Err) instead of
// hanging it.
func guarded(tm stm.TM) *stm.Thread {
	th := stm.NewThread(tm)
	th.MaxRetries = 2000
	return th
}

// wholePairs reports a pair (2w, 2w+1) with exactly one member in a sorted
// snapshot.
func wholePairs(sorted []int) error {
	for i := 0; i < len(sorted); i++ {
		k := sorted[i]
		if k%2 == 1 || i+1 == len(sorted) || sorted[i+1] != k+1 {
			return fmt.Errorf("torn pair around key %d in snapshot %v", k, sorted)
		}
		i++
	}
	return nil
}
