package eec

import (
	"sync"
	"testing"

	"oestm/internal/core"
	"oestm/internal/stm"
)

func TestMapTransfer(t *testing.T) {
	tm := core.New()
	th := stm.NewThread(tm)
	m := NewSkipListMap()
	m.Put(th, 1, 100)
	m.Put(th, 2, 50)

	if !m.Transfer(th, 1, 2, 30) {
		t.Fatal("transfer with sufficient funds failed")
	}
	if v, _ := m.Get(th, 1); v != 70 {
		t.Fatalf("account 1 = %v, want 70", v)
	}
	if v, _ := m.Get(th, 2); v != 80 {
		t.Fatalf("account 2 = %v, want 80", v)
	}
	if m.Transfer(th, 1, 2, 71) {
		t.Fatal("transfer over balance succeeded")
	}
	if m.Transfer(th, 9, 2, 1) {
		t.Fatal("transfer from missing account succeeded")
	}
	if m.Transfer(th, 1, 9, 1) {
		t.Fatal("transfer to missing account succeeded")
	}
	if m.Transfer(th, 1, 1, 1) {
		t.Fatal("self-transfer succeeded")
	}
	if m.Transfer(th, 1, 2, 0) || m.Transfer(th, 1, 2, -5) {
		t.Fatal("non-positive transfer succeeded")
	}
	if got := m.SumInt(th); got != 150 {
		t.Fatalf("SumInt = %d, want 150", got)
	}
}

func TestMapTransferConservesTotal(t *testing.T) {
	const accounts, balance, goroutines, transfers = 8, 1000, 4, 500
	tm := core.New()
	init := stm.NewThread(tm)
	m := NewSkipListMap()
	for i := 0; i < accounts; i++ {
		m.Put(init, i, balance)
	}
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			th := stm.NewThread(tm)
			for i := 0; i < transfers; i++ {
				from := (seed + i) % accounts
				to := (from + 1 + i%(accounts-1)) % accounts
				m.Transfer(th, from, to, int64(1+i%37))
			}
		}(g)
	}
	wg.Wait()
	if got := m.SumInt(init); got != accounts*balance {
		t.Fatalf("total balance = %d, want %d", got, accounts*balance)
	}
}

func TestQueueMoveTo(t *testing.T) {
	tm := core.New()
	th := stm.NewThread(tm)
	src, dst := NewQueue(), NewQueue()
	for i := 1; i <= 3; i++ {
		src.Enqueue(th, i)
	}
	v, ok := src.MoveTo(th, dst)
	if !ok || v != 1 {
		t.Fatalf("MoveTo = (%v, %v), want (1, true)", v, ok)
	}
	if _, ok := src.MoveTo(th, dst); !ok {
		t.Fatal("second MoveTo failed")
	}
	if got := src.Len(th); got != 1 {
		t.Fatalf("src len = %d, want 1", got)
	}
	snap := dst.Snapshot(th)
	if len(snap) != 2 || snap[0] != 1 || snap[1] != 2 {
		t.Fatalf("dst snapshot = %v, want [1 2]", snap)
	}
	empty := NewQueue()
	if v, ok := empty.MoveTo(th, dst); ok || v != nil {
		t.Fatalf("MoveTo from empty = (%v, %v), want (nil, false)", v, ok)
	}
}

// TestComposedOpsSequentialInOneRegion exercises sibling composed frame
// operations inside one user transaction: each must consume the shared
// frame fields before the next is parameterised, including across a
// whole-nest retry.
func TestComposedOpsSequentialInOneRegion(t *testing.T) {
	tm := core.New()
	th := stm.NewThread(tm)
	a, b := NewLinkedListSet(), NewHashSet(4)
	m := NewSkipListMap()
	q1, q2 := NewQueue(), NewQueue()
	a.Add(th, 1)
	m.Put(th, 0, 10)
	m.Put(th, 1, 0)
	q1.Enqueue(th, 7)

	var moved, inserted, transferred, staged bool
	err := th.Atomic(stm.Elastic, func(stm.Tx) error {
		moved = Move(th, a, b, 1)
		inserted = InsertIfAbsent(th, a, 2, 3)
		transferred = m.Transfer(th, 0, 1, 5)
		_, staged = q1.MoveTo(th, q2)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !moved || !inserted || !transferred || !staged {
		t.Fatalf("composition results: move=%v insert=%v transfer=%v stage=%v",
			moved, inserted, transferred, staged)
	}
	if !b.Contains(th, 1) || a.Contains(th, 1) || !a.Contains(th, 2) {
		t.Fatal("composed region left wrong set state")
	}
	if v, _ := m.Get(th, 1); v != 5 {
		t.Fatalf("account 1 = %v, want 5", v)
	}
	if v, ok := q2.Dequeue(th); !ok || v != 7 {
		t.Fatalf("staged item = (%v, %v), want (7, true)", v, ok)
	}
}

// TestComposedOpsAllocFree pins the frame machinery down: composed
// operations that mutate nothing (absent keys, blocked inserts, empty
// queues) must not allocate at all — no closure capture, no escaping
// results.
func TestComposedOpsAllocFree(t *testing.T) {
	tm := core.New()
	th := stm.NewThread(tm)
	s := NewLinkedListSet()
	s.Add(th, 1)
	m := NewSkipListMap()
	m.Put(th, 0, 10)
	q, q2 := NewQueue(), NewQueue()

	cases := []struct {
		name string
		fn   func()
	}{
		{"move-absent", func() { Move(th, s, s, 99) }},
		{"insert-if-absent-blocked", func() { InsertIfAbsent(th, s, 2, 1) }},
		{"transfer-insufficient", func() { m.Transfer(th, 0, 1, 100) }},
		{"map-get", func() { m.Get(th, 0) }},
		{"queue-move-empty", func() { q.MoveTo(th, q2) }},
		{"queue-dequeue-empty", func() { q.Dequeue(th) }},
	}
	for _, c := range cases {
		c.fn() // warm the frame
		if avg := testing.AllocsPerRun(100, c.fn); avg != 0 {
			t.Errorf("%s: %.1f allocs/op, want 0", c.name, avg)
		}
	}
}
