package eec

import "oestm/internal/stm"

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
