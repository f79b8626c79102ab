package eec

import (
	"math"
	"runtime"
	"sync/atomic"
	"testing"
	"unsafe"

	"oestm/internal/core"
	"oestm/internal/mvar"
	"oestm/internal/stm"
)

const cacheLine = 64

// Package-level sinks keep the constructors' results on the heap.
var (
	sinkM *mnode
	sinkS *snode
)

// heapBytesPerRun reports the bytes one call of fn takes from the heap
// (size class included), averaged over enough calls to drown the noise.
func heapBytesPerRun(fn func()) uint64 {
	const runs = 1000
	fn()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		fn()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / runs
}

// gap is the distance in bytes from the end of a to the start of b.
func gap(a unsafe.Pointer, aSize uintptr, b unsafe.Pointer) uintptr {
	return uintptr(b) - (uintptr(a) + aSize)
}

// TestLayoutNodes pins the memory layout of the e.e.c nodes: the plain
// sizes, and for the skip lists the shape each tower height is allocated
// in — one heap object of an exact size for heights 1 to coTowerMax, with
// the tower ending where the node begins, two objects above. Padding must
// neither creep back into the nodes (a removal mark is a bit in the links,
// not a word of its own) nor a co-allocated shape silently fall back to
// two allocations or a larger size class.
func TestLayoutNodes(t *testing.T) {
	if got := unsafe.Sizeof(lnode{}); got != 32 {
		t.Errorf("Sizeof(lnode) = %d, want 32", got)
	}
	if got := unsafe.Sizeof(qnode{}); got != 40 {
		t.Errorf("Sizeof(qnode) = %d, want 40", got)
	}
	if got := unsafe.Sizeof(snode{}); got != 32 {
		t.Errorf("Sizeof(snode) = %d, want 32 (key, slice header)", got)
	}
	if got := unsafe.Sizeof(mnode{}); got != 56 {
		t.Errorf("Sizeof(mnode) = %d, want 56 (key, slice header, value)", got)
	}
	// Heap bytes (size class included) of the one-object shapes, by height.
	wantMBytes := [coTowerMax + 1]uint64{1: 80, 2: 112, 3: 128, 4: 160}
	wantSBytes := [coTowerMax + 1]uint64{1: 64, 2: 80, 3: 112, 4: 128}

	for h := 1; h <= maxLevel; h++ {
		wantAllocs := 1.0
		if h > coTowerMax {
			wantAllocs = 2
		}
		if got := testing.AllocsPerRun(100, func() { sinkM = newMnode(1, h, 0) }); got != wantAllocs {
			t.Errorf("newMnode(height %d): %.0f allocations, want %.0f", h, got, wantAllocs)
		}
		if got := testing.AllocsPerRun(100, func() { sinkS = newSnode(1, h) }); got != wantAllocs {
			t.Errorf("newSnode(height %d): %.0f allocations, want %.0f", h, got, wantAllocs)
		}
		if len(sinkM.next) != h || len(sinkS.next) != h {
			t.Errorf("height %d: tower lengths %d (map) / %d (set)", h, len(sinkM.next), len(sinkS.next))
		}
		if h > coTowerMax {
			continue
		}
		// Co-allocated: the tower array ends exactly where the node (its
		// key) begins, so the top link, the key and the next header are
		// contiguous.
		mTower := uintptr(cap(sinkM.next)) * unsafe.Sizeof(sinkM.next[0])
		sTower := uintptr(cap(sinkS.next)) * unsafe.Sizeof(sinkS.next[0])
		if d := gap(unsafe.Pointer(&sinkM.next[0]), mTower, unsafe.Pointer(&sinkM.key)); d != 0 {
			t.Errorf("mnode height %d: key is %d bytes past the tower's end, want 0", h, d)
		}
		if d := gap(unsafe.Pointer(&sinkS.next[0]), sTower, unsafe.Pointer(&sinkS.key)); d != 0 {
			t.Errorf("snode height %d: key is %d bytes past the tower's end, want 0", h, d)
		}
		if cap(sinkM.next) != h || cap(sinkS.next) != h {
			t.Errorf("height %d: co-allocated towers hold %d (map) / %d (set) links, want exactly %d", h, cap(sinkM.next), cap(sinkS.next), h)
		}
		if got := heapBytesPerRun(func() { sinkM = newMnode(1, h, 0) }); got != wantMBytes[h] {
			t.Errorf("mnode height %d occupies %d heap bytes, want %d", h, got, wantMBytes[h])
		}
		if got := heapBytesPerRun(func() { sinkS = newSnode(1, h) }); got != wantSBytes[h] {
			t.Errorf("snode height %d occupies %d heap bytes, want %d", h, got, wantSBytes[h])
		}
		// The two common shapes (3/4 of all nodes): the level-0 link is
		// within a cache line of the key.
		if h <= 2 && (mTower >= cacheLine || sTower >= cacheLine) {
			t.Errorf("height %d: level-0 link is %d (map) / %d (set) bytes before key, want < %d", h, mTower, sTower, cacheLine)
		}
	}
}

// TestLayoutQueue pins the one place in the package where isolation is
// real: head and tail are written by different goroutines back-to-back and
// must never share a cache line, nor may tail share one with whatever the
// allocator places after the queue.
func TestLayoutQueue(t *testing.T) {
	var q Queue
	if d := gap(unsafe.Pointer(&q.head), unsafe.Sizeof(q.head), unsafe.Pointer(&q.tail)); d < cacheLine {
		t.Errorf("Queue.head and Queue.tail are %d bytes apart, want ≥ %d", d, cacheLine)
	}
	if d := gap(unsafe.Pointer(&q.tail), unsafe.Sizeof(q.tail), unsafe.Add(unsafe.Pointer(&q), unsafe.Sizeof(q))); d < cacheLine {
		t.Errorf("Queue.tail is %d bytes from the end of the queue, want ≥ %d", d, cacheLine)
	}
}

// buildAndKeepTower builds head → 10 (height 1) → 20 (height 2) → 30
// (height 4) → tail, attaches a finalizer to the co-allocated objects of 20
// and 30, and returns nothing but 20's tower slice: the map, the thread
// (whose frame remembers the map) and every node pointer die with this
// frame.
//
//go:noinline
func buildAndKeepTower(t *testing.T, freed *atomic.Int32) []mvar.Var[mnode] {
	th := stm.NewThread(core.New())
	m := NewSkipListMap()
	PutHeight(m, th, 10, 1, -1)
	PutHeight(m, th, 20, 2, 0)
	PutHeight(m, th, 30, 4, 1<<40)
	a := m.head.next[0].Load()
	b := a.next[0].Load()
	c := b.next[0].Load()
	if a.key != 10 || b.key != 20 || c.key != 30 {
		t.Fatalf("unexpected list %d %d %d", a.key, b.key, c.key)
	}
	// A finalizer can only be attached to the start of a heap object: for
	// a co-allocated node that is its tower's first element.
	for _, n := range []*mnode{b, c} {
		runtime.SetFinalizer(&n.next[0], func(*mvar.Var[mnode]) { freed.Add(1) })
	}
	return b.next
}

// TestCoAllocatedTowerKeepsNodeAlive pins what the co-allocation leans on:
// a node is reached through a pointer into the middle of its heap object
// (past the tower), and a tower slice points at the object's start. Either
// interior pointer alone must keep the whole object — tower, key, value —
// alive across a collection.
func TestCoAllocatedTowerKeepsNodeAlive(t *testing.T) {
	// Node 20's object is held only through the returned slice; node 30's
	// only through the *mnode stored in 20's links, which points past
	// 30's tower.
	var freed atomic.Int32
	tower := buildAndKeepTower(t, &freed)
	for i := 0; i < 3; i++ {
		runtime.GC()
	}
	if n := freed.Load(); n != 0 {
		t.Fatalf("%d co-allocated node objects were collected while a tower slice still reached them", n)
	}
	c := tower[0].Load()
	if c.key != 30 || c.val.Load() != 1<<40 || tower[1].Load() != c {
		t.Fatalf("node behind the surviving tower reads %d=%d, want 30=%d", c.key, c.val.Load(), int64(1<<40))
	}
	if len(c.next) != 4 || c.next[0].Load().key != math.MaxInt {
		t.Fatalf("tower of the surviving successor is damaged: len %d", len(c.next))
	}
	runtime.KeepAlive(tower)
}
