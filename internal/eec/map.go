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

// mnode is a skiplist map node: immutable key, tower links, transactional
// value and removal mark, all typed words (no boxing).
//
// Field order is the traversal's access order: a hop reads key and the
// next header (and through it one link), only a hit goes on to val and
// marked. For towers of height ≤ 4 the links live in the same heap object,
// immediately before the node (see newMnode), so a hop touches one object
// instead of two.
type mnode struct {
	key    int
	next   []mvar.Var[mnode] // each holds *mnode; len is the tower height
	val    mvar.IntVar       // holds int64
	marked mvar.Flag         // holds bool
}

// newMnode allocates a node with a tower of the given height. Heights 1,
// 2 and 3–4 (≈ 94 % of nodes at p = 1/2) get the tower co-allocated in
// front of the node, so the top link ends where key begins; taller towers
// are rare enough to take a separate allocation. n.next aliases the
// co-allocated array: the slice's interior pointer keeps the whole object
// alive, and nothing outside this constructor can tell the shapes apart.
func newMnode(key, height int, val int64) *mnode {
	var n *mnode
	switch {
	case height == 1:
		x := new(struct {
			t [1]mvar.Var[mnode]
			mnode
		})
		n, x.next = &x.mnode, x.t[:]
	case height == 2:
		x := new(struct {
			t [2]mvar.Var[mnode]
			mnode
		})
		n, x.next = &x.mnode, x.t[:]
	case height <= coTowerMax:
		x := new(struct {
			t [coTowerMax]mvar.Var[mnode]
			mnode
		})
		n, x.next = &x.mnode, x.t[:height]
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
	target := stm.ReadPtr(tx, &f.mPreds[0].next[0])
	if target.key == key {
		if stm.ReadFlag(tx, &target.marked) {
			stm.Conflict("skiplistmap: node concurrently removed")
		}
		f.mRet, f.mOK = stm.ReadInt(tx, &target.val), true
		stm.WriteInt(tx, &target.val, f.mVal)
		return
	}
	if f.mPreds[0].key >= key || target.key < key {
		stm.Conflict("skiplistmap: insertion window moved")
	}
	if stm.ReadFlag(tx, &f.mPreds[0].marked) {
		stm.Conflict("skiplistmap: predecessor removed")
	}
	n := newMnode(key, f.height, f.mVal)
	succ := target
	for l := 0; l < f.height; l++ {
		if l > 0 {
			succ = stm.ReadPtr(tx, &f.mPreds[l].next[l])
			if f.mPreds[l].key >= key || succ.key <= key {
				stm.Conflict("skiplistmap: insertion window moved")
			}
			if stm.ReadFlag(tx, &f.mPreds[l].marked) {
				stm.Conflict("skiplistmap: predecessor removed")
			}
		}
		n.next[l].Init(succ)
		stm.WritePtr(tx, &f.mPreds[l].next[l], n)
	}
}

// remove is the transactional body of Remove.
func (m *SkipListMap) remove(tx stm.Tx, f *opFrame) {
	f.mRet, f.mOK = 0, false
	key := f.mKey
	m.find(tx, f)
	target := stm.ReadPtr(tx, &f.mPreds[0].next[0])
	if target.key != key {
		if target.key < key {
			stm.Conflict("skiplistmap: removal window moved")
		}
		return
	}
	if stm.ReadFlag(tx, &target.marked) || stm.ReadFlag(tx, &f.mPreds[0].marked) {
		stm.Conflict("skiplistmap: node concurrently removed")
	}
	f.mRet, f.mOK = stm.ReadInt(tx, &target.val), true
	stm.WriteFlag(tx, &target.marked, true)
	for l := len(target.next) - 1; l >= 0; l-- {
		pred := f.mPreds[l]
		curr := stm.ReadPtr(tx, &pred.next[l])
		if curr != target {
			stm.Conflict("skiplistmap: tower link moved")
		}
		if l > 0 && stm.ReadFlag(tx, &pred.marked) {
			stm.Conflict("skiplistmap: predecessor removed")
		}
		succ := stm.ReadPtr(tx, &target.next[l])
		stm.WritePtr(tx, &pred.next[l], succ)
		// Same-value rewrite of the departing node's link, as in the
		// skip list set: bump the version so outherited elastic windows
		// that run through target fail validation.
		stm.WritePtr(tx, &target.next[l], succ)
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
