package eec_test

import (
	"math/rand/v2"
	"slices"
	"sync"
	"testing"

	"oestm/internal/eec"
	"oestm/internal/stm"
)

// TestTowerHeightsAgainstModel drives both skip lists with every tower
// height — the four co-allocated shapes, the separate-tower fallback and
// the seam between them at 4|5 — against plain Go maps: insert, get,
// overwrite, remove, iterate, on every engine (elementary operations are atomic on estm too).
func TestTowerHeightsAgainstModel(t *testing.T) {
	for name, mk := range engines() {
		t.Run(name, func(t *testing.T) {
			th := stm.NewThread(mk())
			rng := rand.New(rand.NewPCG(24, 0))
			m, s := eec.NewSkipListMap(), eec.NewSkipListSet()
			model := map[int]int64{}

			check := func(step string) {
				t.Helper()
				want := make([]int, 0, len(model))
				for k := range model {
					want = append(want, k)
				}
				slices.Sort(want)
				var got []int
				m.Range(th, func(k int, v int64) bool {
					if v != model[k] {
						t.Fatalf("%s: Range yields %d=%v, model has %v", step, k, v, model[k])
					}
					got = append(got, k)
					return true
				})
				if !slices.Equal(got, want) {
					t.Fatalf("%s: map keys %v, model %v", step, got, want)
				}
				if got := s.Elements(th); !slices.Equal(got, want) {
					t.Fatalf("%s: set elements %v, model %v", step, got, want)
				}
			}
			// The mark invariant, checked after every step: links of
			// reachable nodes read unmarked, every link of the last few
			// removed towers reads marked.
			var mRemoved []eec.MapNode
			var sRemoved []eec.SetNode
			marks := func(i int) {
				t.Helper()
				if err := eec.CheckMapMarks(m, mRemoved); err != nil {
					t.Fatalf("op %d: map: %v", i, err)
				}
				if err := eec.CheckSetMarks(s, sRemoved); err != nil {
					t.Fatalf("op %d: set: %v", i, err)
				}
			}

			// One key per height first, in shuffled key order so nodes of
			// every shape end up as each other's neighbours at every level.
			keys := rng.Perm(eec.MaxLevel)
			for h := 1; h <= eec.MaxLevel; h++ {
				k := keys[h-1]
				if _, had := eec.PutHeight(m, th, k, h, int64(k)*-10); had {
					t.Fatalf("fresh key %d reported present", k)
				}
				if !eec.AddHeight(s, th, k, h) {
					t.Fatalf("fresh key %d not added to the set", k)
				}
				model[k] = int64(k) * -10
			}
			check("after one insert per height")

			heights := []int{1, 2, 3, 4, 5, 8, eec.MaxLevel}
			for i := 0; i < 600; i++ {
				k, h := rng.IntN(2*eec.MaxLevel), heights[rng.IntN(len(heights))]
				_, inModel := model[k]
				switch rng.IntN(4) {
				case 0: // insert or overwrite; a present key keeps its old tower
					v := randValue(rng)
					prev, had := eec.PutHeight(m, th, k, h, v)
					if had != inModel || prev != model[k] {
						t.Fatalf("op %d: Put(%d) = %v,%v, model %v,%v", i, k, prev, had, model[k], inModel)
					}
					if added := eec.AddHeight(s, th, k, h); added == inModel {
						t.Fatalf("op %d: Add(%d) = %v, model has it: %v", i, k, added, inModel)
					}
					model[k] = v
				case 1:
					mn, sn := eec.MapNodeOf(m, k), eec.SetNodeOf(s, k)
					prev, had := m.Remove(th, k)
					if had != inModel || prev != model[k] {
						t.Fatalf("op %d: map Remove(%d) = %v,%v, model %v,%v", i, k, prev, had, model[k], inModel)
					}
					if removed := s.Remove(th, k); removed != inModel {
						t.Fatalf("op %d: set Remove(%d) = %v, model %v", i, k, removed, inModel)
					}
					if inModel {
						mRemoved = append(mRemoved[max(0, len(mRemoved)-3):], mn)
						sRemoved = append(sRemoved[max(0, len(sRemoved)-3):], sn)
					}
					delete(model, k)
				default:
					v, ok := m.Get(th, k)
					if ok != inModel || v != model[k] {
						t.Fatalf("op %d: Get(%d) = %v,%v, model %v,%v", i, k, v, ok, model[k], inModel)
					}
					if s.Contains(th, k) != inModel {
						t.Fatalf("op %d: Contains(%d) = %v, model %v", i, k, !inModel, inModel)
					}
				}
				marks(i)
				if i%50 == 0 {
					check("mid-run")
				}
			}
			check("after random ops")
		})
	}
}

// TestTowerHeightsConcurrent rewires neighbours of different allocation
// shapes from several goroutines at once: each worker owns one residue
// class of keys and inserts/removes them with forced heights, so adjacent
// nodes — and therefore the towers a single update writes through —
// belong to different workers. Every worker's final view must match its
// own model. Run it under -race.
func TestTowerHeightsConcurrent(t *testing.T) {
	const workers, perWorker, rounds = 4, 8, 300
	heights := []int{1, 2, 3, 4, 5, eec.MaxLevel}
	for name, mk := range engines() {
		t.Run(name, func(t *testing.T) {
			tm := mk()
			m, s := eec.NewSkipListMap(), eec.NewSkipListSet()
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					th := stm.NewThread(tm)
					rng := rand.New(rand.NewPCG(24, uint64(w)))
					model := map[int]int64{}
					for i := 0; i < rounds; i++ {
						k, h := rng.IntN(perWorker)*workers+w, heights[rng.IntN(len(heights))]
						if _, in := model[k]; in && rng.IntN(2) == 0 {
							m.Remove(th, k)
							s.Remove(th, k)
							delete(model, k)
						} else {
							v := -int64(i) << 40 // wide and negative
							eec.PutHeight(m, th, k, h, v)
							eec.AddHeight(s, th, k, h)
							model[k] = v
						}
					}
					for j := 0; j < perWorker; j++ {
						k := j*workers + w
						want, in := model[k]
						if v, ok := m.Get(th, k); ok != in || v != want {
							t.Errorf("worker %d: Get(%d) = %v,%v, own model %v,%v", w, k, v, ok, want, in)
						}
						if s.Contains(th, k) != in {
							t.Errorf("worker %d: Contains(%d) = %v, own model %v", w, k, !in, in)
						}
					}
				}(w)
			}
			wg.Wait()
			th := stm.NewThread(tm)
			if keys := s.Elements(th); !slices.IsSorted(keys) || len(keys) != m.Size(th) {
				t.Errorf("set holds %v, map has %d entries", keys, m.Size(th))
			}
		})
	}
}
