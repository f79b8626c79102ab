package eec

import (
	"math"

	"oestm/internal/mvar"
	"oestm/internal/stm"
)

// maxLevel bounds skiplist towers; with p = 1/2 this comfortably covers
// the paper's 2^12..2^13 element counts.
const maxLevel = 16

// coTowerMax is the tallest tower a skiplist node carries inside its own
// heap object (see newSnode, newMnode); 15/16 of the towers drawn by
// randomHeight fit.
const coTowerMax = 4

// snode is a skiplist node: an immutable key and one transactional link
// per level of its tower. Links are typed variables, so traversals never
// box.
//
// Each link also carries the node's removal mark (the link encoding,
// mvar.LinkRaw): the transactional form of a Harris marked pointer. The
// mark is what lets concurrent updates detect that a predecessor they
// located during an elastic traversal has since left the structure. An
// update reads each predecessor link it writes through, and so reads the
// predecessor's mark with it. A removal writes every link of the departing
// tower marked, so it invalidates those readers at commit time.
type snode struct {
	key  int
	next []mvar.Var[snode] // each holds *snode and the node's mark; len is the tower height
}

// newSnode allocates a node with a tower of the given height: in the same
// heap object, immediately before the node, for heights ≤ coTowerMax, and
// as a separate slice above that. See newMnode, which has the same shapes.
func newSnode(key, height int) *snode {
	var n *snode
	switch height {
	case 1:
		x := new(struct {
			t [1]mvar.Var[snode]
			snode
		})
		n, x.next = &x.snode, x.t[:]
	case 2:
		x := new(struct {
			t [2]mvar.Var[snode]
			snode
		})
		n, x.next = &x.snode, x.t[:]
	case 3:
		x := new(struct {
			t [3]mvar.Var[snode]
			snode
		})
		n, x.next = &x.snode, x.t[:]
	case coTowerMax:
		x := new(struct {
			t [coTowerMax]mvar.Var[snode]
			snode
		})
		n, x.next = &x.snode, x.t[:]
	default:
		n = &snode{next: make([]mvar.Var[snode], height)}
	}
	n.key = key
	return n
}

// SkipListSet is the skip list set of e.e.c (Fig. 5 / Fig. 7). Updates
// touch O(log n) links, so — as the paper observes — relaxation buys less
// here than on the linked list: every engine contends on the towers.
type SkipListSet struct {
	head *snode
	tail *snode
}

// NewSkipListSet returns an empty SkipListSet.
func NewSkipListSet() *SkipListSet {
	tail := newSnode(math.MaxInt, maxLevel)
	head := newSnode(math.MinInt, maxLevel)
	for l := 0; l < maxLevel; l++ {
		head.next[l].Init(tail)
	}
	return &SkipListSet{head: head, tail: tail}
}

// Name implements Set.
func (s *SkipListSet) Name() string { return "skiplist" }

// randomHeight draws a tower height with geometric distribution p = 1/2.
// It is drawn outside the transaction body so retries reuse it.
func randomHeight(th *stm.Thread) int {
	h := 1
	for h < maxLevel && th.Rand.Uint64()&1 == 1 {
		h++
	}
	return h
}

// find locates, per level, the rightmost node with key < f.key and its
// successor, filling the frame's scratch arrays (which keeps them off the
// heap). Only the traversal reads are performed; callers re-read the
// links they are about to modify (see add) so that the positions they
// rely on are protected even under elastic semantics.
//
//compose:noalloc
func (s *SkipListSet) find(tx stm.Tx, f *opFrame) {
	key := f.key
	curr := s.head
	for l := maxLevel - 1; l >= 0; l-- {
		next := stm.ReadPtr(tx, &curr.next[l])
		for next.key < key {
			curr = next
			next = stm.ReadPtr(tx, &curr.next[l])
		}
		f.preds[l], f.succs[l] = curr, next
	}
}

// contains is the transactional body of Contains.
//
//compose:noalloc
func (s *SkipListSet) contains(tx stm.Tx, f *opFrame) bool {
	s.find(tx, f)
	return f.succs[0].key == f.key
}

// add is the transactional body of Add; f.height carries the tower height
// drawn outside the transaction.
func (s *SkipListSet) add(tx stm.Tx, f *opFrame) bool {
	key := f.key
	s.find(tx, f)
	// Re-read the level-0 link: under elastic semantics the traversal
	// reads above may no longer be protected, so the links to be
	// rewired are re-read transactionally just before writing — the
	// re-reads join the protected set and are validated at commit. Each
	// re-read also yields the predecessor's removal mark.
	succ, predMarked := stm.ReadLink(tx, &f.preds[0].next[0])
	if succ.key == key {
		return false // already present
	}
	if f.preds[0].key >= key || succ.key < key {
		stm.Conflict("skiplist: insertion window moved")
	}
	if predMarked {
		stm.Conflict("skiplist: predecessor removed")
	}
	n := newSnode(key, f.height)
	for l := 0; l < f.height; l++ {
		if l > 0 {
			succ, predMarked = stm.ReadLink(tx, &f.preds[l].next[l])
			if f.preds[l].key >= key || succ.key <= key {
				stm.Conflict("skiplist: insertion window moved")
			}
			if predMarked {
				stm.Conflict("skiplist: predecessor removed")
			}
		}
		n.next[l].Init(succ)
		stm.WritePtr(tx, &f.preds[l].next[l], n)
	}
	return true
}

// remove is the transactional body of Remove.
//
//compose:noalloc
func (s *SkipListSet) remove(tx stm.Tx, f *opFrame) bool {
	key := f.key
	s.find(tx, f)
	target, predMarked := stm.ReadLink(tx, &f.preds[0].next[0])
	if target.key != key {
		if target.key < key {
			stm.Conflict("skiplist: removal window moved")
		}
		return false // absent
	}
	next, marked := stm.ReadLink(tx, &target.next[0])
	if marked || predMarked {
		stm.Conflict("skiplist: node concurrently removed")
	}
	// Marking target's level-0 link is the linchpin: every concurrent
	// update that located target — to remove it, or to insert right
	// after it — has that link in its protected set and fails validation
	// once we commit. It is the first write, right after the reads it
	// checked, so the elastic window it promotes holds both of them.
	stm.WriteLink(tx, &target.next[0], next, true)
	for l := len(target.next) - 1; l >= 0; l-- {
		pred := f.preds[l]
		curr, predMarked := stm.ReadLink(tx, &pred.next[l])
		if curr != target {
			stm.Conflict("skiplist: tower link moved")
		}
		if predMarked {
			stm.Conflict("skiplist: predecessor removed")
		}
		succ := stm.ReadPtr(tx, &target.next[l])
		stm.WritePtr(tx, &pred.next[l], succ)
		// Mark the removed node's link, keeping its successor (cf.
		// list.remove's same-value rewrite). The mark turns away any
		// update that still finds target as its predecessor on this
		// level. The version bump invalidates any concurrent elastic
		// transaction whose protected window — possibly outherited into
		// an enclosing composition — is a link of the departing node.
		// Without it, a composed contains whose last read went through
		// target would still validate at the parent's commit and observe
		// a node no longer in the structure.
		stm.WriteLink(tx, &target.next[l], succ, true)
	}
	return true
}

// Contains implements Set.
func (s *SkipListSet) Contains(th *stm.Thread, key int) bool {
	return frameOf(th).skipOp(opContains, s, key)
}

// Add implements Set.
func (s *SkipListSet) Add(th *stm.Thread, key int) bool {
	f := frameOf(th)
	f.height = randomHeight(th)
	return f.skipOp(opAdd, s, key)
}

// Remove implements Set.
func (s *SkipListSet) Remove(th *stm.Thread, key int) bool {
	return frameOf(th).skipOp(opRemove, s, key)
}

// AddAll implements Set by composing Add.
func (s *SkipListSet) AddAll(th *stm.Thread, keys []int) bool {
	return addAll(th, s, keys)
}

// RemoveAll implements Set by composing Remove.
func (s *SkipListSet) RemoveAll(th *stm.Thread, keys []int) bool {
	return removeAll(th, s, keys)
}

// Size implements Set with a single atomic traversal of level 0.
func (s *SkipListSet) Size(th *stm.Thread) int {
	return len(s.Elements(th))
}

// Elements implements Set.
func (s *SkipListSet) Elements(th *stm.Thread) []int {
	var out []int
	_ = th.Atomic(stm.Regular, func(tx stm.Tx) error {
		out = out[:0]
		curr := stm.ReadPtr(tx, &s.head.next[0])
		for curr.key != math.MaxInt {
			out = append(out, curr.key)
			curr = stm.ReadPtr(tx, &curr.next[0])
		}
		return nil
	})
	return out
}
