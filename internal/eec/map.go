package eec

import (
	"math"

	"oestm/internal/mvar"
	"oestm/internal/stm"
)

// SkipListMap is an ordered integer-keyed map built on the same skiplist
// substrate as SkipListSet — the e.e.c counterpart of the JDK's
// ConcurrentSkipListMap, whose size() and bulk views are famously not
// atomic (§I). Here every operation, including Size, Range and the
// composed PutIfAbsent/PutAll/Transfer, is atomic.
//
// Keys are immutable ints and values are int64s held directly in a
// transactional word of the node (mvar.IntVar): updating a present key
// conflicts only on that node and allocates nothing, and a read stops at
// the node it already loaded.
type SkipListMap struct {
	head *mnode
	tail *mnode
}

// mnode is a skiplist map node: immutable key, tower links and
// transactional value, all typed words (no boxing). As in snode, each link
// carries the node's removal mark beside the successor pointer.
//
// Field order is the traversal's access order: a hop reads key and the
// next header (and through it one link), only a hit goes on to val. For
// towers of height ≤ 4 the links live in the same heap object, immediately
// before the node (see newMnode), so a hop touches one object instead of
// two.
type mnode struct {
	key  int
	next []mvar.Var[mnode] // each holds *mnode and the node's mark; len is the tower height
	val  mvar.IntVar       // holds int64
}

// newMnode allocates a node with a tower of the given height. Heights 1
// to 4 (≈ 94 % of nodes at p = 1/2) each get their own shape, with the
// tower co-allocated in front of the node, so the top link ends where key
// begins; taller towers are rare enough to take a separate allocation.
// n.next aliases the co-allocated array: the slice's interior pointer
// keeps the whole object alive, and nothing outside this constructor can
// tell the shapes apart.
func newMnode(key, height int, val int64) *mnode {
	var n *mnode
	switch height {
	case 1:
		x := new(struct {
			t [1]mvar.Var[mnode]
			mnode
		})
		n, x.next = &x.mnode, x.t[:]
	case 2:
		x := new(struct {
			t [2]mvar.Var[mnode]
			mnode
		})
		n, x.next = &x.mnode, x.t[:]
	case 3:
		x := new(struct {
			t [3]mvar.Var[mnode]
			mnode
		})
		n, x.next = &x.mnode, x.t[:]
	case coTowerMax:
		x := new(struct {
			t [coTowerMax]mvar.Var[mnode]
			mnode
		})
		n, x.next = &x.mnode, x.t[:]
	default:
		n = &mnode{next: make([]mvar.Var[mnode], height)}
	}
	n.key = key
	n.val.Init(val)
	return n
}

// NewSkipListMap returns an empty SkipListMap.
func NewSkipListMap() *SkipListMap {
	tail := newMnode(math.MaxInt, maxLevel, 0)
	head := newMnode(math.MinInt, maxLevel, 0)
	for l := 0; l < maxLevel; l++ {
		head.next[l].Init(tail)
	}
	return &SkipListMap{head: head, tail: tail}
}

// Name identifies the implementation.
func (m *SkipListMap) Name() string { return "skiplistmap" }

// find locates, per level, the rightmost node with key < f.mKey, filling
// the frame's scratch array (which keeps the predecessors off the heap).
//
//compose:noalloc
func (m *SkipListMap) find(tx stm.Tx, f *opFrame) {
	key := f.mKey
	curr := m.head
	for l := maxLevel - 1; l >= 0; l-- {
		next := stm.ReadPtr(tx, &curr.next[l])
		for next.key < key {
			curr = next
			next = stm.ReadPtr(tx, &curr.next[l])
		}
		f.mPreds[l] = curr
	}
}

// get is the transactional body of Get.
//
//compose:noalloc
func (m *SkipListMap) get(tx stm.Tx, f *opFrame) {
	f.mRet, f.mOK = 0, false
	m.find(tx, f)
	target := stm.ReadPtr(tx, &f.mPreds[0].next[0])
	if target.key == f.mKey {
		f.mRet, f.mOK = stm.ReadInt(tx, &target.val), true
	}
}

// put is the transactional body of Put; f.height carries the tower height
// drawn outside the transaction, f.mVal the value to store.
func (m *SkipListMap) put(tx stm.Tx, f *opFrame) {
	f.mRet, f.mOK = 0, false
	key := f.mKey
	m.find(tx, f)
	target, predMarked := stm.ReadLink(tx, &f.mPreds[0].next[0])
	if target.key == key {
		// A hit reads target's mark from its level-0 link, then the value,
		// then writes: the write promotes exactly those two reads.
		if _, marked := stm.ReadLink(tx, &target.next[0]); marked {
			stm.Conflict("skiplistmap: node concurrently removed")
		}
		f.mRet, f.mOK = stm.ReadInt(tx, &target.val), true
		stm.WriteInt(tx, &target.val, f.mVal)
		return
	}
	if f.mPreds[0].key >= key || target.key < key {
		stm.Conflict("skiplistmap: insertion window moved")
	}
	if predMarked {
		stm.Conflict("skiplistmap: predecessor removed")
	}
	n := newMnode(key, f.height, f.mVal)
	succ := target
	for l := 0; l < f.height; l++ {
		if l > 0 {
			succ, predMarked = stm.ReadLink(tx, &f.mPreds[l].next[l])
			if f.mPreds[l].key >= key || succ.key <= key {
				stm.Conflict("skiplistmap: insertion window moved")
			}
			if predMarked {
				stm.Conflict("skiplistmap: predecessor removed")
			}
		}
		n.next[l].Init(succ)
		stm.WritePtr(tx, &f.mPreds[l].next[l], n)
	}
}

// remove is the transactional body of Remove.
//
// Its order is fixed: read target's level-0 link (the mark check), read
// the value, then at once write that link marked. The elastic window is
// two reads wide and a read of one's own write is not re-protected, so
// any read between the value and the first write would push the value out
// of the window. A concurrent Put could then commit in between, and the
// removal would return — and a harvesting caller lose — a stale value.
//
//compose:noalloc
func (m *SkipListMap) remove(tx stm.Tx, f *opFrame) {
	f.mRet, f.mOK = 0, false
	key := f.mKey
	m.find(tx, f)
	target, predMarked := stm.ReadLink(tx, &f.mPreds[0].next[0])
	if target.key != key {
		if target.key < key {
			stm.Conflict("skiplistmap: removal window moved")
		}
		return
	}
	next, marked := stm.ReadLink(tx, &target.next[0])
	if marked || predMarked {
		stm.Conflict("skiplistmap: node concurrently removed")
	}
	f.mRet, f.mOK = stm.ReadInt(tx, &target.val), true
	stm.WriteLink(tx, &target.next[0], next, true)
	for l := len(target.next) - 1; l >= 0; l-- {
		pred := f.mPreds[l]
		curr, predMarked := stm.ReadLink(tx, &pred.next[l])
		if curr != target {
			stm.Conflict("skiplistmap: tower link moved")
		}
		if predMarked {
			stm.Conflict("skiplistmap: predecessor removed")
		}
		succ := stm.ReadPtr(tx, &target.next[l])
		stm.WritePtr(tx, &pred.next[l], succ)
		// Mark the departing node's link, as in the skip list set: the
		// mark turns away updates that still find target as a
		// predecessor, and the version bump fails outherited elastic
		// windows that run through target.
		stm.WriteLink(tx, &target.next[l], succ, true)
	}
}

// Get returns the value stored under key and whether it is present.
func (m *SkipListMap) Get(th *stm.Thread, key int) (int64, bool) {
	return frameOf(th).mapOp(mapGet, m, key, 0)
}

// GetTx reads the value under key inside the caller's open transaction
// tx, without starting a nested child and without touching the thread's
// operation frame. It is the building block for cross-structure atomic
// observations (e.g. the sharded store's MGet snapshot, which reads many
// maps inside one Regular transaction, exactly like SumInt): unlike a
// composed Get child — whose elastic window only outherits its final
// read — every link and value read here joins the caller's protected set
// directly, so the whole multi-map observation validates as one snapshot
// on every engine. Allocation-free.
//
//compose:noalloc
func (m *SkipListMap) GetTx(tx stm.Tx, key int) (int64, bool) {
	curr := m.head
	for l := maxLevel - 1; l >= 0; l-- {
		next := stm.ReadPtr(tx, &curr.next[l])
		for next.key < key {
			curr = next
			next = stm.ReadPtr(tx, &curr.next[l])
		}
	}
	target := stm.ReadPtr(tx, &curr.next[0])
	if target.key == key {
		return stm.ReadInt(tx, &target.val), true
	}
	return 0, false
}

// ContainsKey reports whether key is present.
func (m *SkipListMap) ContainsKey(th *stm.Thread, key int) bool {
	_, ok := m.Get(th, key)
	return ok
}

// Put stores val under key, returning the previous value (0, false if
// the key was absent).
func (m *SkipListMap) Put(th *stm.Thread, key int, val int64) (int64, bool) {
	f := frameOf(th)
	f.height = randomHeight(th)
	return f.mapOp(mapPut, m, key, val)
}

// Remove deletes key, returning the removed value (0, false if absent).
func (m *SkipListMap) Remove(th *stm.Thread, key int) (int64, bool) {
	return frameOf(th).mapOp(mapRemove, m, key, 0)
}

// PutIfAbsent stores val only when key is absent — a composition of
// ContainsKey and Put, atomic thanks to outheritance. It reports whether
// the value was stored.
func (m *SkipListMap) PutIfAbsent(th *stm.Thread, key int, val int64) bool {
	stored := false
	_ = th.Atomic(OpKind(th), func(stm.Tx) error {
		stored = false
		if !m.ContainsKey(th, key) {
			m.Put(th, key, val)
			stored = true
		}
		return nil
	})
	return stored
}

// PutAll stores every entry atomically (composed from Put).
func (m *SkipListMap) PutAll(th *stm.Thread, entries map[int]int64) {
	// Deterministic order so retried compositions behave identically.
	keys := make([]int, 0, len(entries))
	for k := range entries {
		keys = append(keys, k)
	}
	insertionSort(keys)
	_ = th.Atomic(OpKind(th), func(stm.Tx) error {
		for _, k := range keys {
			m.Put(th, k, entries[k])
		}
		return nil
	})
}

// Transfer atomically moves amount from the value under `from` to the
// value under `to` — the bank-account transfer of the composed-scenario
// suite, composed from Get and Put through the thread's pre-bound frame
// (no per-call closure). The transfer happens only when both keys are
// present and the source balance covers amount; it reports whether it
// happened. from == to and non-positive amounts are rejected (they could
// not conserve the total).
func (m *SkipListMap) Transfer(th *stm.Thread, from, to int, amount int64) bool {
	if amount <= 0 || from == to {
		return false
	}
	f := frameOf(th)
	f.cMap, f.cA, f.cB, f.cAmt = m, from, to, amount
	_ = th.Atomic(OpKind(th), f.compFns[compTransfer])
	f.cMap = nil
	return f.cOK
}

// SumInt atomically sums the values of the map in one transaction — the
// total-balance audit of the bank scenario.
func (m *SkipListMap) SumInt(th *stm.Thread) int64 {
	var total int64
	_ = th.Atomic(stm.Regular, func(tx stm.Tx) error {
		total = 0
		curr := stm.ReadPtr(tx, &m.head.next[0])
		for curr.key != math.MaxInt {
			total += stm.ReadInt(tx, &curr.val)
			curr = stm.ReadPtr(tx, &curr.next[0])
		}
		return nil
	})
	return total
}

// Size returns the number of entries, atomically.
func (m *SkipListMap) Size(th *stm.Thread) int {
	n := 0
	_ = th.Atomic(stm.Regular, func(tx stm.Tx) error {
		n = 0
		curr := stm.ReadPtr(tx, &m.head.next[0])
		for curr.key != math.MaxInt {
			n++
			curr = stm.ReadPtr(tx, &curr.next[0])
		}
		return nil
	})
	return n
}

// Range calls fn for every entry in ascending key order within one
// atomic snapshot; fn returning false stops the iteration. fn must not
// start transactions on th.
func (m *SkipListMap) Range(th *stm.Thread, fn func(key int, val int64) bool) {
	type entry struct {
		k int
		v int64
	}
	var snapshot []entry
	_ = th.Atomic(stm.Regular, func(tx stm.Tx) error {
		snapshot = snapshot[:0]
		curr := stm.ReadPtr(tx, &m.head.next[0])
		for curr.key != math.MaxInt {
			snapshot = append(snapshot, entry{curr.key, stm.ReadInt(tx, &curr.val)})
			curr = stm.ReadPtr(tx, &curr.next[0])
		}
		return nil
	})
	for _, e := range snapshot {
		if !fn(e.k, e.v) {
			return
		}
	}
}

// insertionSort keeps the map free of the sort package dependency for a
// handful of keys.
func insertionSort(xs []int) {
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && xs[j] < xs[j-1]; j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
}
