package eec

import (
	"oestm/internal/mvar"
	"oestm/internal/stm"
)

// Queue is a transactional FIFO queue — the e.e.c counterpart of
// java.util.concurrent's ConcurrentLinkedQueue, whose iterator is only
// "weakly consistent" (§VI). Here Enqueue/Dequeue are atomic, Snapshot is
// a consistent iteration, and the bulk operations (EnqueueAll, DrainTo)
// are compositions of the elementary ones.
//
// The queue is a singly linked list with a dummy head: head points at the
// node before the first element, tail at the last node. Enqueue writes
// tail.next and tail; Dequeue writes head. Enqueues and dequeues of a
// non-empty queue touch disjoint locations and do not conflict.
type Queue struct {
	head mvar.Var[qnode] // holds *qnode
	_    [64]byte        // dequeuers write head, enqueuers write tail: never one cache line
	tail mvar.Var[qnode] // holds *qnode
	_    [64]byte        // keeps tail off the line of whatever follows (a pipeline's next queue's head)
}

type qnode struct {
	val  any
	next mvar.Var[qnode] // holds *qnode
}

// NewQueue returns an empty queue.
func NewQueue() *Queue {
	dummy := &qnode{}
	q := &Queue{}
	q.head.Init(dummy)
	q.tail.Init(dummy)
	return q
}

// Name identifies the implementation.
func (q *Queue) Name() string { return "queue" }

// enqueue is the transactional body of Enqueue.
func (q *Queue) enqueue(tx stm.Tx, val any) {
	n := &qnode{val: val}
	tail := stm.ReadPtr(tx, &q.tail)
	stm.WritePtr(tx, &tail.next, n)
	stm.WritePtr(tx, &q.tail, n)
}

// dequeue is the transactional body of Dequeue.
func (q *Queue) dequeue(tx stm.Tx) (val any, ok bool) {
	head := stm.ReadPtr(tx, &q.head)
	first := stm.ReadPtr(tx, &head.next)
	if first == nil {
		return nil, false
	}
	// The dequeued node becomes the new dummy. Its payload field is
	// immutable (set before publication), so it must not be cleared
	// here: the transaction may retry, and concurrent snapshots may
	// still read it. The reference is dropped at the next dequeue.
	stm.WritePtr(tx, &q.head, first)
	return first.val, true
}

// Enqueue appends val.
func (q *Queue) Enqueue(th *stm.Thread, val any) {
	frameOf(th).queueOp(queueEnq, q, val)
}

// Dequeue removes and returns the first element; ok is false when the
// queue is empty.
func (q *Queue) Dequeue(th *stm.Thread) (val any, ok bool) {
	return frameOf(th).queueOp(queueDeq, q, nil)
}

// MoveTo atomically transfers one element from q to dst — the pipeline
// stage of the composed-scenario suite, composed from Dequeue and Enqueue
// across the two queues through the thread's pre-bound frame (no per-call
// closure). It returns the moved element, or ok=false when q was empty.
func (q *Queue) MoveTo(th *stm.Thread, dst *Queue) (val any, ok bool) {
	f := frameOf(th)
	f.cQFrom, f.cQTo = q, dst
	_ = th.Atomic(OpKind(th), f.compFns[compMoveTo])
	f.cQFrom, f.cQTo = nil, nil
	val, ok = f.cRet, f.cOK
	f.cRet = nil
	return val, ok
}

// Peek returns the first element without removing it.
func (q *Queue) Peek(th *stm.Thread) (val any, ok bool) {
	_ = th.Atomic(OpKind(th), func(tx stm.Tx) error {
		val, ok = nil, false
		head := stm.ReadPtr(tx, &q.head)
		first := stm.ReadPtr(tx, &head.next)
		if first != nil {
			val, ok = first.val, true
		}
		return nil
	})
	return val, ok
}

// Len returns the number of elements, atomically.
func (q *Queue) Len(th *stm.Thread) int {
	n := 0
	_ = th.Atomic(stm.Regular, func(tx stm.Tx) error {
		n = 0
		head := stm.ReadPtr(tx, &q.head)
		for curr := stm.ReadPtr(tx, &head.next); curr != nil; curr = stm.ReadPtr(tx, &curr.next) {
			n++
		}
		return nil
	})
	return n
}

// Snapshot returns a consistent copy of the queue contents in FIFO order
// — the atomic iterator java.util.concurrent cannot provide.
func (q *Queue) Snapshot(th *stm.Thread) []any {
	var out []any
	_ = th.Atomic(stm.Regular, func(tx stm.Tx) error {
		out = out[:0]
		head := stm.ReadPtr(tx, &q.head)
		for curr := stm.ReadPtr(tx, &head.next); curr != nil; curr = stm.ReadPtr(tx, &curr.next) {
			out = append(out, curr.val)
		}
		return nil
	})
	return out
}

// EnqueueAll appends every value as one atomic step (composed from
// Enqueue).
func (q *Queue) EnqueueAll(th *stm.Thread, vals []any) {
	_ = th.Atomic(OpKind(th), func(stm.Tx) error {
		for _, v := range vals {
			q.Enqueue(th, v)
		}
		return nil
	})
}

// DrainTo atomically moves up to max elements into dst (composed from
// Dequeue and Enqueue across two queues); it returns how many moved.
func (q *Queue) DrainTo(th *stm.Thread, dst *Queue, max int) int {
	moved := 0
	_ = th.Atomic(OpKind(th), func(stm.Tx) error {
		moved = 0
		for moved < max {
			v, ok := q.Dequeue(th)
			if !ok {
				break
			}
			dst.Enqueue(th, v)
			moved++
		}
		return nil
	})
	return moved
}
