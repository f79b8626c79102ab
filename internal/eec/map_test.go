package eec_test

import (
	"math"
	"math/rand/v2"
	"sync"
	"testing"
	"testing/quick"

	"oestm/internal/core"
	"oestm/internal/eec"
	"oestm/internal/stm"
)

func TestMapBasic(t *testing.T) {
	for ename, etm := range engines() {
		t.Run(ename, func(t *testing.T) {
			tm := etm()
			th := stm.NewThread(tm)
			m := eec.NewSkipListMap()
			if m.Name() != "skiplistmap" {
				t.Fatalf("name = %q", m.Name())
			}
			if _, ok := m.Get(th, 1); ok {
				t.Fatal("empty map has key 1")
			}
			if prev, had := m.Put(th, 1, math.MinInt64); had || prev != 0 {
				t.Fatalf("Put on absent key returned %v, %v", prev, had)
			}
			if v, ok := m.Get(th, 1); !ok || v != math.MinInt64 {
				t.Fatalf("Get = %v, %v", v, ok)
			}
			if prev, had := m.Put(th, 1, math.MaxInt64); !had || prev != math.MinInt64 {
				t.Fatalf("overwrite returned %v, %v", prev, had)
			}
			if !m.ContainsKey(th, 1) || m.ContainsKey(th, 2) {
				t.Fatal("ContainsKey wrong")
			}
			if m.Size(th) != 1 {
				t.Fatalf("size = %d", m.Size(th))
			}
			if prev, had := m.Remove(th, 1); !had || prev != math.MaxInt64 {
				t.Fatalf("Remove returned %v, %v", prev, had)
			}
			if _, had := m.Remove(th, 1); had {
				t.Fatal("Remove of absent key reported success")
			}
		})
	}
}

func TestMapPutIfAbsent(t *testing.T) {
	tm := core.New()
	th := stm.NewThread(tm)
	m := eec.NewSkipListMap()
	if !m.PutIfAbsent(th, 5, -7) {
		t.Fatal("PutIfAbsent on absent key failed")
	}
	if m.PutIfAbsent(th, 5, 8) {
		t.Fatal("PutIfAbsent on present key stored")
	}
	if v, _ := m.Get(th, 5); v != -7 {
		t.Fatalf("value = %v, want -7", v)
	}
}

func TestMapPutAllAndRange(t *testing.T) {
	tm := core.New()
	th := stm.NewThread(tm)
	m := eec.NewSkipListMap()
	m.PutAll(th, map[int]int64{3: 1 << 40, 1: -1, 2: 0})
	var keys []int
	var vals []int64
	m.Range(th, func(k int, v int64) bool {
		keys = append(keys, k)
		vals = append(vals, v)
		return true
	})
	if len(keys) != 3 || keys[0] != 1 || keys[1] != 2 || keys[2] != 3 {
		t.Fatalf("range keys = %v", keys)
	}
	if vals[0] != -1 || vals[1] != 0 || vals[2] != 1<<40 {
		t.Fatalf("range vals = %v", vals)
	}
	// Early stop.
	count := 0
	m.Range(th, func(int, int64) bool { count++; return false })
	if count != 1 {
		t.Fatalf("early-stop visited %d entries", count)
	}
}

// TestMapAgainstModel drives random operation sequences against a map
// model, over the whole value domain (see randValue). After every step the
// mark invariant must hold: reachable nodes' links read unmarked, and the
// links of the last few removed nodes read marked.
func TestMapAgainstModel(t *testing.T) {
	tm := core.New()
	th := stm.NewThread(tm)
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 5))
		m := eec.NewSkipListMap()
		model := map[int]int64{}
		var removed []eec.MapNode
		for i := 0; i < 200; i++ {
			if err := eec.CheckMapMarks(m, removed); err != nil {
				t.Logf("seed %d, before op %d: %v", seed, i, err)
				return false
			}
			k := int(rng.IntN(25))
			switch rng.IntN(4) {
			case 0:
				v := randValue(rng)
				prev, had := m.Put(th, k, v)
				mprev, mhad := model[k], false
				if _, ok := model[k]; ok {
					mhad = true
				}
				if had != mhad || (had && prev != mprev) {
					return false
				}
				model[k] = v
			case 1:
				node := eec.MapNodeOf(m, k)
				prev, had := m.Remove(th, k)
				mprev, mhad := model[k], false
				if _, ok := model[k]; ok {
					mhad = true
				}
				if had != mhad || (had && prev != mprev) {
					return false
				}
				if node != nil {
					removed = append(removed[max(0, len(removed)-3):], node)
				}
				delete(model, k)
			case 2:
				v, ok := m.Get(th, k)
				mv, mok := model[k]
				if ok != mok || (ok && v != mv) {
					return false
				}
			default:
				if m.ContainsKey(th, k) != hasKey(model, k) {
					return false
				}
			}
		}
		if err := eec.CheckMapMarks(m, removed); err != nil {
			t.Logf("seed %d, at the end: %v", seed, err)
			return false
		}
		return m.Size(th) == len(model)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

func hasKey(m map[int]int64, k int) bool {
	_, ok := m[k]
	return ok
}

// randValue draws a map value from the whole int64 domain: the extremes,
// the small values around zero, and wide values of either sign — values
// are never reserved (only keys are), and the cell must round-trip every
// one of them.
func randValue(rng *rand.Rand) int64 {
	switch rng.IntN(4) {
	case 0:
		return []int64{math.MinInt64, math.MaxInt64, -1, 0, 1 << 40}[rng.IntN(5)]
	case 1:
		return rng.Int64N(512) - 256
	default:
		return int64(rng.Uint64())
	}
}

// TestMapConcurrentCounters uses map values as per-key counters updated
// read-modify-write inside one atomic region; totals must be exact.
func TestMapConcurrentCounters(t *testing.T) {
	tm := core.New()
	m := eec.NewSkipListMap()
	const keys = 8
	const goroutines = 6
	const per = 150
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			th := stm.NewThread(tm)
			rng := rand.New(rand.NewPCG(seed, 13))
			for i := 0; i < per; i++ {
				k := int(rng.IntN(keys))
				_ = th.Atomic(stm.Elastic, func(stm.Tx) error {
					v, ok := m.Get(th, k)
					if !ok {
						m.Put(th, k, 1)
					} else {
						m.Put(th, k, v+1)
					}
					return nil
				})
			}
		}(uint64(g + 1))
	}
	wg.Wait()
	th := stm.NewThread(tm)
	var total int64
	m.Range(th, func(_ int, v int64) bool {
		total += v
		return true
	})
	if total != goroutines*per {
		t.Fatalf("total = %d, want %d", total, goroutines*per)
	}
}

// TestMapAtomicSizeUnderBulk: PutAll blocks are atomic, so Size is always
// a multiple of the block length.
func TestMapAtomicSizeUnderBulk(t *testing.T) {
	tm := core.New()
	m := eec.NewSkipListMap()
	block := map[int]int64{10: 1, 11: -2, 12: 3, 13: -4}
	stop := make(chan struct{})
	var workers, observers sync.WaitGroup
	workers.Add(1)
	go func() {
		defer workers.Done()
		th := stm.NewThread(tm)
		for i := 0; i < 200; i++ {
			m.PutAll(th, block)
			_ = th.Atomic(stm.Elastic, func(stm.Tx) error {
				for k := range block {
					m.Remove(th, k)
				}
				return nil
			})
		}
	}()
	observers.Add(1)
	go func() {
		defer observers.Done()
		th := stm.NewThread(tm)
		for {
			select {
			case <-stop:
				return
			default:
			}
			if n := m.Size(th); n != 0 && n != len(block) {
				t.Errorf("torn bulk observed: size %d", n)
				return
			}
		}
	}()
	workers.Wait()
	close(stop)
	observers.Wait()
}

// TestMapGetTx pins the direct-read primitive behind cross-structure
// snapshots (the store's MGet): values and absences agree with Get, a
// multi-map observation inside one Regular transaction is atomic, and
// the read path is allocation-free.
func TestMapGetTx(t *testing.T) {
	tm := core.New()
	th := stm.NewThread(tm)
	a, b := eec.NewSkipListMap(), eec.NewSkipListMap()
	for k := 0; k < 32; k++ {
		if k%2 == 0 {
			a.Put(th, k, int64(k*10))
		} else {
			b.Put(th, k, int64(k*10))
		}
	}
	var gotA, gotB int64
	body := func(tx stm.Tx) error {
		gotA, gotB = 0, 0
		for k := 0; k < 32; k++ {
			if v, ok := a.GetTx(tx, k); ok {
				gotA += v
			}
			if v, ok := b.GetTx(tx, k); ok {
				gotB += v
			}
			if _, ok := a.GetTx(tx, k+1000); ok {
				t.Error("GetTx found an absent key")
			}
		}
		return nil
	}
	if err := th.Atomic(stm.Regular, body); err != nil {
		t.Fatal(err)
	}
	var wantA, wantB int64
	for k := int64(0); k < 32; k += 2 {
		wantA += k * 10
		wantB += (k + 1) * 10
	}
	if gotA != wantA || gotB != wantB {
		t.Fatalf("GetTx sums %d/%d, want %d/%d", gotA, gotB, wantA, wantB)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		if err := th.Atomic(stm.Regular, body); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("GetTx snapshot: %v allocs/op, want 0", allocs)
	}
}
