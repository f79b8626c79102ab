// Package boost implements transactional boosting (Herlihy & Koskinen,
// PPoPP 2008) — the second relaxed transactional model the paper analyses
// (§VIII): operations run eagerly against a linearizable base object
// under per-key *abstract locks*, with *compensating operations* undoing
// them on abort.
//
// The paper observes that boosting, as published, does not address
// composition, but that "passing abstract locks from the child to the
// parent transaction would make transactional boosting satisfy
// outheritance and therefore provide composition". This package
// implements exactly that: with outheritance enabled (New(true)), a
// nested transaction's abstract locks and compensation log are passed to
// its parent at commit; with it disabled (New(false)), the locks are
// released and the child's effects become final at child commit —
// reproducing the same composition violations as E-STM, which the tests
// demonstrate. Abstract locks map to the model's protection elements, so
// instrumented executions can be checked against Definition 4.1 with
// internal/check, realising the paper's §IX plan of using outheritance
// across multiple relaxation types.
package boost

import (
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"oestm/internal/mvar"
	"oestm/internal/stm"
)

// ErrConflict is returned when a transaction exceeds its retry budget.
var ErrConflict = errors.New("boost: transaction conflict")

// spinBudget bounds how long an operation waits for an abstract lock
// before aborting the whole nest (deadlock avoidance by timeout).
const spinBudget = 1 << 12

// TM is a boosting domain: transactions from one TM contend on its
// abstract locks.
type TM struct {
	outherit bool
	tracer   stm.Tracer
	txIDs    atomic.Uint64
	thIDs    atomic.Int64
	elems    sync.Map // *Lock -> *mvar.Word (protection-element proxy)
}

// New returns a boosting domain. With outherit true, nested commits pass
// their abstract locks and compensation logs to the parent (the
// composable variant); with false, they release and discard them (the
// original, non-composable behaviour).
func New(outherit bool) *TM { return &TM{outherit: outherit} }

// Name identifies the domain configuration.
func (tm *TM) Name() string {
	if tm.outherit {
		return "boost-outherit"
	}
	return "boost"
}

// Outherits reports whether nested commits pass their locks upward.
func (tm *TM) Outherits() bool { return tm.outherit }

// SetTracer installs a protection-element tracer (abstract locks appear
// as elements). Install before running transactions.
func (tm *TM) SetTracer(tr stm.Tracer) { tm.tracer = tr }

// elemOf returns the protection-element proxy of an abstract lock. The
// word is an identity token for the tracer — nothing ever locks or stores
// to it — so it needs no isolation from its neighbours.
func (tm *TM) elemOf(l *Lock) *mvar.Word {
	if v, ok := tm.elems.Load(l); ok {
		return v.(*mvar.Word)
	}
	v, _ := tm.elems.LoadOrStore(l, new(mvar.Word))
	return v.(*mvar.Word)
}

// Lock is one abstract lock: the unit of conflict detection of a boosted
// object (e.g. one per key of a boosted set). The zero value is unlocked.
type Lock struct {
	mu    sync.Mutex
	owner *Tx // top-level transaction of the owning nest, nil if free
}

// Thread is the per-goroutine context of a boosting domain.
type Thread struct {
	// ID names the thread as a process in traced histories.
	ID int
	// MaxRetries, when non-zero, bounds attempts per Atomic call.
	MaxRetries int

	tm   *TM
	cur  *Tx
	pool []*Tx // recycled Tx frames: Atomic allocates nothing in steady state
}

// NewThread creates a thread context.
func (tm *TM) NewThread() *Thread {
	return &Thread{ID: int(tm.thIDs.Add(1)), tm: tm}
}

// conflictSignal unwinds a doomed attempt to the outermost Atomic.
type conflictSignal struct{}

// userAbort unwinds the whole nest carrying the user's error.
type userAbort struct{ err error }

// lockEntry attributes a held lock to the transaction that acquired it
// (for trace attribution on release).
type lockEntry struct {
	l  *Lock
	by uint64
}

// Tx is a boosted transaction. The whole nest shares one lock list and
// one compensation log, owned by the top-level transaction; each nested
// transaction marks the segment it contributed, so a non-outheriting
// child commit can release exactly its own locks, while a conflict abort
// anywhere compensates and releases everything at the top.
type Tx struct {
	tm     *TM
	th     *Thread
	id     uint64
	parent *Tx
	top    *Tx

	// Shared state (meaningful on top only).
	locks []lockEntry
	undo  []func()

	// Segment starts of this transaction within the shared slices.
	lockStart int
	undoStart int
}

// Atomic runs fn as a boosted transaction, retrying on abstract-lock
// conflicts. Nested calls compose: the child's locks and compensations
// are outherited to the parent at commit (or released, per the domain
// configuration).
func (th *Thread) Atomic(fn func(tx *Tx) error) error {
	if th.cur != nil {
		return th.runNested(fn)
	}
	for attempt := 0; ; attempt++ {
		tx := th.begin(nil)
		err, retry := th.runTop(tx, fn)
		th.cur = nil
		th.recycle(tx)
		if !retry {
			return err
		}
		if th.MaxRetries > 0 && attempt+1 >= th.MaxRetries {
			return ErrConflict
		}
		if attempt > 2 {
			time.Sleep(time.Duration(1+attempt) * time.Microsecond)
		}
	}
}

func (th *Thread) begin(parent *Tx) *Tx {
	var tx *Tx
	if n := len(th.pool); n > 0 {
		tx = th.pool[n-1]
		th.pool = th.pool[:n-1]
	} else {
		tx = new(Tx)
	}
	*tx = Tx{tm: th.tm, th: th, id: th.tm.txIDs.Add(1), parent: parent,
		locks: tx.locks[:0], undo: tx.undo[:0]}
	if parent == nil {
		tx.top = tx
	} else {
		tx.top = parent.top
		tx.lockStart = len(tx.top.locks)
		tx.undoStart = len(tx.top.undo)
	}
	th.cur = tx
	if tr := th.tm.tracer; tr != nil {
		var pid uint64
		if parent != nil {
			pid = parent.id
		}
		tr.TxBegin(th.ID, tx.id, pid, stm.Regular)
	}
	return tx
}

func (th *Thread) runTop(tx *Tx, fn func(tx *Tx) error) (err error, retry bool) {
	defer func() {
		if r := recover(); r != nil {
			switch s := r.(type) {
			case conflictSignal:
				tx.abortFrom(0, 0)
				err, retry = nil, true
			case userAbort:
				tx.abortFrom(0, 0)
				err, retry = s.err, false
			default:
				tx.abortFrom(0, 0)
				th.cur = nil
				panic(r)
			}
		}
	}()
	if e := fn(tx); e != nil {
		tx.abortFrom(0, 0)
		return e, false
	}
	tx.commitTop()
	return nil, false
}

// recycle returns a finished Tx frame to the thread's pool. Safe by the
// time a transaction ends: commitTop/abortFrom release every abstract
// lock first, so no Lock.owner can still point at the recycled frame,
// and lock entries attribute by numeric id, not pointer.
func (th *Thread) recycle(tx *Tx) {
	th.pool = append(th.pool, tx)
}

func (th *Thread) runNested(fn func(tx *Tx) error) error {
	parent := th.cur
	child := th.begin(parent)
	defer func() {
		th.cur = parent
		th.recycle(child)
	}()
	if err := fn(child); err != nil {
		// Abort the child only; the userAbort panic lets the outer
		// levels unwind (and compensate their own segments).
		child.top.abortSegment(child)
		panic(userAbort{err})
	}
	child.commitNested()
	return nil
}

// Acquire takes an abstract lock on behalf of the transaction's nest,
// spinning briefly and aborting the nest on sustained contention.
// Reentrant acquisitions by the same nest are no-ops.
func (tx *Tx) Acquire(l *Lock) {
	top := tx.top
	for spin := 0; ; spin++ {
		l.mu.Lock()
		if l.owner == nil {
			l.owner = top
			l.mu.Unlock()
			top.locks = append(top.locks, lockEntry{l: l, by: tx.id})
			if tr := tx.tm.tracer; tr != nil {
				tr.Acquire(tx.th.ID, tx.id, tx.tm.elemOf(l))
			}
			return
		}
		if l.owner == top {
			l.mu.Unlock()
			return // already held by this nest
		}
		l.mu.Unlock()
		if spin >= spinBudget {
			panic(conflictSignal{})
		}
	}
}

// Defer registers a compensating operation, run (in reverse order) if the
// transaction aborts.
func (tx *Tx) Defer(compensate func()) {
	tx.top.undo = append(tx.top.undo, compensate)
}

// Op records an operation event on the traced history (for checking
// against the model); it has no semantic effect.
func (tx *Tx) Op(l *Lock, op string, val any) {
	if tr := tx.tm.tracer; tr != nil {
		tr.Op(tx.th.ID, tx.id, tx.tm.elemOf(l), op, val)
	}
}

// releaseFrom frees the nest's locks acquired at or after index from.
func (tx *Tx) releaseFrom(from int) {
	top := tx.top
	for _, e := range top.locks[from:] {
		e.l.mu.Lock()
		if e.l.owner == top {
			e.l.owner = nil
		}
		e.l.mu.Unlock()
		if tr := tx.tm.tracer; tr != nil {
			tr.Release(tx.th.ID, e.by, tx.tm.elemOf(e.l))
		}
	}
	top.locks = top.locks[:from]
}

// abortFrom compensates the shared log back to undoStart (reverse order)
// and frees the locks back to lockStart, emitting this transaction's
// abort event.
func (tx *Tx) abortFrom(undoStart, lockStart int) {
	top := tx.top
	for i := len(top.undo) - 1; i >= undoStart; i-- {
		top.undo[i]()
	}
	top.undo = top.undo[:undoStart]
	if tr := tx.tm.tracer; tr != nil {
		tr.TxAbort(tx.th.ID, tx.id)
	}
	tx.releaseFrom(lockStart)
}

// abortSegment aborts exactly child's contribution.
func (tx *Tx) abortSegment(child *Tx) {
	child.abortFrom(child.undoStart, child.lockStart)
}

// commitTop finalises a top-level transaction: effects are already
// applied; discard compensations and free every lock.
func (tx *Tx) commitTop() {
	tx.undo = tx.undo[:0]
	if tr := tx.tm.tracer; tr != nil {
		tr.TxCommit(tx.th.ID, tx.id)
	}
	tx.releaseFrom(0)
}

// commitNested applies the outheritance rule: pass locks and
// compensations to the parent (they stay in the shared nest state), or —
// in the non-composable configuration — release the child's locks and
// make its effects final.
func (tx *Tx) commitNested() {
	if tr := tx.tm.tracer; tr != nil {
		tr.TxCommit(tx.th.ID, tx.id)
	}
	if tx.tm.outherit {
		return // locks and compensations remain with the nest: outherited
	}
	top := tx.top
	top.undo = top.undo[:tx.undoStart] // effects final: no compensation
	tx.releaseFrom(tx.lockStart)
}
