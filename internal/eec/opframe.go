package eec

import "oestm/internal/stm"

// opCode selects one elementary set operation.
type opCode uint8

const (
	opContains opCode = iota
	opAdd
	opRemove
	numOps
)

// mapCode selects one elementary SkipListMap operation.
type mapCode uint8

const (
	mapGet mapCode = iota
	mapPut
	mapRemove
	numMapOps
)

// queueCode selects one elementary Queue operation.
type queueCode uint8

const (
	queueEnq queueCode = iota
	queueDeq
	numQueueOps
)

// compCode selects one composed (multi-operation) frame closure.
type compCode uint8

const (
	compMove compCode = iota
	compInsertIfAbsent
	compTransfer
	compMoveTo
	numComps
)

// opFrame is per-thread scratch for the operations of the e.e.c
// structures. The transaction closures are bound to the frame once, at
// first use, and parameterised through its fields, so running an
// operation allocates nothing beyond what the structure itself requires:
// no closure capture, no escaping result variable, and (for the skip
// lists) no escaping predecessor/successor arrays.
//
// Elementary operations never invoke other elementary operations from
// inside their own transaction closure, and a thread runs one operation
// at a time, so the single frame per thread is safe even under
// composition: a composed operation's children run strictly one after
// another, each setting the fields, running, and consuming the result
// before the next starts. Whole-nest retries re-execute the enclosing
// composition closure, which re-parameterises the frame on the way down.
//
// The composed closures (compMove, compTransfer, ...) invoke elementary
// operations, which clobber the elementary parameter fields; the
// composition therefore keeps its own parameters in the dedicated c*
// fields, which survive a whole-nest retry re-entering the closure. A
// composed frame closure must never invoke another composed frame
// closure — sibling composed calls inside a user transaction are fine
// (each completes and is consumed before the next is parameterised), but
// nesting them would clobber the shared c* fields mid-flight.
type opFrame struct {
	th *stm.Thread

	// Parameters and result of the elementary set operation in flight.
	l   list
	sl  *SkipListSet
	key int
	res bool

	// Skip-list scratch: tower height for the pending add, and the
	// per-level predecessor/successor arrays of the current traversal.
	height int
	preds  [maxLevel]*snode
	succs  [maxLevel]*snode

	// Parameters and result of the elementary SkipListMap operation in
	// flight (mVal doubles as the Put argument), plus the traversal
	// scratch keeping the predecessor array off the heap.
	m      *SkipListMap
	mKey   int
	mVal   int64
	mRet   int64
	mOK    bool
	mPreds [maxLevel]*mnode

	// Parameters and result of the elementary Queue operation in flight.
	q    *Queue
	qVal any
	qOK  bool

	// Parameters and result of the composed operations. Kept apart from
	// the elementary fields above because the composed closures call
	// elementary operations, which overwrite those.
	cFrom, cTo   Set
	cMap         *SkipListMap
	cQFrom, cQTo *Queue
	cA, cB       int
	cAmt         int64
	cRet         any
	cOK          bool

	listFns  [numOps]func(stm.Tx) error
	slFns    [numOps]func(stm.Tx) error
	mapFns   [numMapOps]func(stm.Tx) error
	queueFns [numQueueOps]func(stm.Tx) error
	compFns  [numComps]func(stm.Tx) error
}

// frameOf returns the thread's operation frame, creating and binding it
// on first use.
func frameOf(th *stm.Thread) *opFrame {
	if f, ok := th.OpScratch.(*opFrame); ok {
		return f
	}
	f := &opFrame{th: th}
	f.listFns[opContains] = func(tx stm.Tx) error { f.res = f.l.contains(tx, f.key); return nil }
	f.listFns[opAdd] = func(tx stm.Tx) error { f.res = f.l.add(tx, f.key); return nil }
	f.listFns[opRemove] = func(tx stm.Tx) error { f.res = f.l.remove(tx, f.key); return nil }
	f.slFns[opContains] = func(tx stm.Tx) error { f.res = f.sl.contains(tx, f); return nil }
	f.slFns[opAdd] = func(tx stm.Tx) error { f.res = f.sl.add(tx, f); return nil }
	f.slFns[opRemove] = func(tx stm.Tx) error { f.res = f.sl.remove(tx, f); return nil }
	f.mapFns[mapGet] = func(tx stm.Tx) error { f.m.get(tx, f); return nil }
	f.mapFns[mapPut] = func(tx stm.Tx) error { f.m.put(tx, f); return nil }
	f.mapFns[mapRemove] = func(tx stm.Tx) error { f.m.remove(tx, f); return nil }
	f.queueFns[queueEnq] = func(tx stm.Tx) error { f.q.enqueue(tx, f.qVal); return nil }
	f.queueFns[queueDeq] = func(tx stm.Tx) error { f.qVal, f.qOK = f.q.dequeue(tx); return nil }
	f.bindComposed()
	th.OpScratch = f
	return f
}

// bindComposed binds the composed-operation closures. They call public
// elementary operations, which recurse into this frame through the
// elementary fields — see the frame invariant in the type comment.
func (f *opFrame) bindComposed() {
	f.compFns[compMove] = func(stm.Tx) error {
		f.cOK = false
		if f.cFrom.Remove(f.th, f.cA) {
			f.cTo.Add(f.th, f.cA)
			f.cOK = true
		}
		return nil
	}
	f.compFns[compInsertIfAbsent] = func(stm.Tx) error {
		f.cOK = false
		if !f.cFrom.Contains(f.th, f.cB) {
			f.cOK = f.cFrom.Add(f.th, f.cA)
		}
		return nil
	}
	f.compFns[compTransfer] = func(stm.Tx) error {
		f.cOK = false
		fromBal, ok := f.cMap.Get(f.th, f.cA)
		if !ok || fromBal < f.cAmt {
			return nil
		}
		toBal, ok := f.cMap.Get(f.th, f.cB)
		if !ok {
			return nil
		}
		f.cMap.Put(f.th, f.cA, fromBal-f.cAmt)
		f.cMap.Put(f.th, f.cB, toBal+f.cAmt)
		f.cOK = true
		return nil
	}
	f.compFns[compMoveTo] = func(stm.Tx) error {
		f.cRet, f.cOK = nil, false
		v, ok := f.cQFrom.Dequeue(f.th)
		if !ok {
			return nil
		}
		f.cQTo.Enqueue(f.th, v)
		f.cRet, f.cOK = v, true
		return nil
	}
}

// listOp runs one elementary operation against a sorted list (the
// LinkedListSet, or one HashSet bucket).
//
//compose:noalloc
func (f *opFrame) listOp(code opCode, l list, key int) bool {
	f.l, f.key = l, key
	_ = f.th.Atomic(OpKind(f.th), f.listFns[code])
	return f.res
}

// skipOp runs one elementary operation against a skip list set.
//
//compose:noalloc
func (f *opFrame) skipOp(code opCode, s *SkipListSet, key int) bool {
	f.sl, f.key = s, key
	_ = f.th.Atomic(OpKind(f.th), f.slFns[code])
	return f.res
}

// mapOp runs one elementary operation against a skip list map. val is the
// Put argument (ignored by the other codes).
//
//compose:noalloc
func (f *opFrame) mapOp(code mapCode, m *SkipListMap, key int, val int64) (int64, bool) {
	f.m, f.mKey, f.mVal = m, key, val
	_ = f.th.Atomic(OpKind(f.th), f.mapFns[code])
	return f.mRet, f.mOK
}

// queueOp runs one elementary operation against a queue. val is the
// Enqueue argument; the result value/flag are returned and cleared.
func (f *opFrame) queueOp(code queueCode, q *Queue, val any) (any, bool) {
	f.q, f.qVal = q, val
	_ = f.th.Atomic(OpKind(f.th), f.queueFns[code])
	ret, ok := f.qVal, f.qOK
	f.qVal = nil
	return ret, ok
}
