package eec

import (
	"fmt"

	"oestm/internal/mvar"
	"oestm/internal/stm"
)

// MaxLevel exposes the tower bound to the external tests.
const MaxLevel = maxLevel

// PutHeight and AddHeight are Put and Add with the tower height forced
// instead of drawn.
func PutHeight(m *SkipListMap, th *stm.Thread, key, height int, val int64) (int64, bool) {
	f := frameOf(th)
	f.height = height
	return f.mapOp(mapPut, m, key, val)
}

func AddHeight(s *SkipListSet, th *stm.Thread, key, height int) bool {
	f := frameOf(th)
	f.height = height
	return f.skipOp(opAdd, s, key)
}

// MapNode and SetNode are opaque handles on skip-list nodes, for the
// mark-invariant checks of the external tests.
type (
	MapNode = *mnode
	SetNode = *snode
)

// MapNodeOf and SetNodeOf return the node holding key at level 0, or nil.
// They read without a transaction: quiescent structures only.
func MapNodeOf(m *SkipListMap, key int) MapNode {
	for n := m.head.next[0].Load(); n != m.tail; n = n.next[0].Load() {
		if n.key == key {
			return n
		}
	}
	return nil
}

func SetNodeOf(s *SkipListSet, key int) SetNode {
	for n := s.head.next[0].Load(); n != s.tail; n = n.next[0].Load() {
		if n.key == key {
			return n
		}
	}
	return nil
}

// CheckMapMarks and CheckSetMarks check the mark invariant of a quiescent
// skip list: every link of every node reachable at level 0 (the head
// included) reads unmarked, and every link of every removed node reads
// marked.
func CheckMapMarks(m *SkipListMap, removed []MapNode) error {
	for n := m.head; n != m.tail; n = n.next[0].Load() {
		if err := towerMarks(n.key, n.next, false); err != nil {
			return err
		}
	}
	for _, n := range removed {
		if err := towerMarks(n.key, n.next, true); err != nil {
			return err
		}
	}
	return nil
}

func CheckSetMarks(s *SkipListSet, removed []SetNode) error {
	for n := s.head; n != s.tail; n = n.next[0].Load() {
		if err := towerMarks(n.key, n.next, false); err != nil {
			return err
		}
	}
	for _, n := range removed {
		if err := towerMarks(n.key, n.next, true); err != nil {
			return err
		}
	}
	return nil
}

// towerMarks reports the first link of a tower whose mark is not want.
func towerMarks[T any](key int, tower []mvar.Var[T], want bool) error {
	for l := range tower {
		if _, mark := mvar.LinkValue[T](tower[l].Word().LoadRaw()); mark != want {
			return fmt.Errorf("node %d: level-%d link reads marked=%v, want %v", key, l, mark, want)
		}
	}
	return nil
}
