package stm

import (
	"errors"

	"oestm/internal/mvar"
)

// Atomic executes fn inside a transaction of the given kind and commits
// it, retrying on conflicts. Between attempts the thread's contention
// manager (Thread.CM; the built-in passive randomised exponential backoff
// when nil) decides how long and how to wait, informed by the typed
// ConflictCause of the abort; every abort is also counted per cause in
// Thread.Stats.
//
// The retry loop ends early in two cases, each returning an error that
// matches ErrConflict and is also kept as th.Err(): MaxRetries attempts
// have aborted (*RetryExhaustedError), or an attempt aborted after Cancel
// (*CancelledError).
//
// If a transaction is already open on th, Atomic starts a nested (child)
// transaction instead: this is concurrent composition in the paper's
// sense. A conflict inside a child unwinds and retries the whole outermost
// transaction (closed nesting with flat retry). If fn returns a non-nil
// error the transaction (the whole nest, if nested) is rolled back and the
// error is returned to the outermost caller without retrying.
func (th *Thread) Atomic(k Kind, fn func(tx Tx) error) error {
	if th.cur != nil {
		return th.runNested(k, fn)
	}
	for attempt := 0; ; attempt++ {
		tx := th.TM.Begin(th, k)
		th.cur = tx
		th.depth = 1
		err, retry, cause := th.runTop(tx, fn)
		th.cur = nil
		th.depth = 0
		if !retry {
			if err == nil {
				th.Stats.Commits++
				if th.CM != nil {
					th.CM.OnCommit(th)
				}
			}
			return err
		}
		th.Stats.Aborts++
		th.Stats.AbortsByCause[cause]++
		if th.MaxRetries > 0 && attempt+1 >= th.MaxRetries {
			th.err = &RetryExhaustedError{Attempts: attempt + 1, Cause: cause}
			return th.err
		}
		if th.cancel.Load() {
			th.err = &CancelledError{Attempts: attempt + 1, Cause: cause}
			return th.err
		}
		if th.CM != nil {
			th.Wait(th.CM.OnAbort(th, cause, attempt))
		} else {
			th.backoff(attempt)
		}
	}
}

// runTop executes fn and commit for one top-level attempt, translating the
// private panic signals into (err, retry, cause); cause is only meaningful
// when retry is true.
func (th *Thread) runTop(tx TxControl, fn func(tx Tx) error) (err error, retry bool, cause ConflictCause) {
	defer func() {
		if r := recover(); r != nil {
			switch s := r.(type) {
			case conflictSignal:
				tx.Rollback()
				err, retry, cause = nil, true, s.cause
			case userAbort:
				tx.Rollback()
				err, retry = s.err, false
			default:
				// Foreign panic from user code: roll back and restore the
				// thread state before letting it propagate.
				tx.Rollback()
				th.cur = nil
				th.depth = 0
				panic(r)
			}
		}
	}()
	if e := fn(tx); e != nil {
		tx.Rollback()
		return e, false, CauseUnknown
	}
	if e := tx.Commit(); e != nil {
		if errors.Is(e, ErrConflict) {
			return nil, true, CauseOf(e)
		}
		tx.Rollback()
		return e, false, CauseUnknown
	}
	return nil, false, CauseUnknown
}

// runNested runs fn as a child transaction of th.cur. Conflicts propagate
// (by panic) to the outermost Atomic; user errors abort the whole nest.
func (th *Thread) runNested(k Kind, fn func(tx Tx) error) error {
	parent := th.cur
	child := th.TM.BeginNested(th, parent, k)
	th.Stats.NestedBegins++
	th.cur = child
	th.depth++
	defer func() {
		th.cur = parent
		th.depth--
	}()
	if err := fn(child); err != nil {
		child.Rollback()
		// Unwind the entire nest; the outermost runTop returns err.
		panic(userAbort{err})
	}
	if err := child.Commit(); err != nil {
		if errors.Is(err, ErrConflict) {
			// Re-raise the nested commit failure towards the outermost
			// Atomic, preserving the engine's cause; engines that return
			// the bare sentinel surface as commit-validation, which is
			// what a failed nested commit is.
			cause := CauseOf(err)
			if cause == CauseUnknown {
				cause = CauseCommitValidation
			}
			Abort(cause)
		}
		child.Rollback()
		panic(userAbort{err})
	}
	return nil
}

// ReadT reads v inside tx and type-asserts the result to T. A nil stored
// value yields the zero T. It keeps data-structure code free of assertion
// noise.
func ReadT[T any](tx Tx, v *mvar.AnyVar) T {
	x := tx.Read(v)
	if x == nil {
		var zero T
		return zero
	}
	return x.(T)
}

// ReadPtr reads the typed variable v inside tx. This is the
// allocation-free hot path: the payload travels as a raw word, never
// boxed.
func ReadPtr[T any](tx Tx, v *mvar.Var[T]) *T {
	return mvar.RefValue[T](tx.ReadWord(v.Word()))
}

// WritePtr buffers a new pointer for the typed variable v inside tx. The
// link it writes is unmarked.
func WritePtr[T any](tx Tx, v *mvar.Var[T], p *T) {
	tx.WriteWord(v.Word(), mvar.RefRaw(p))
}

// ReadLink reads the typed variable v inside tx as a link: its pointer and
// its mark bit, from one transactional read (mvar.LinkValue).
func ReadLink[T any](tx Tx, v *mvar.Var[T]) (*T, bool) {
	return mvar.LinkValue[T](tx.ReadWord(v.Word()))
}

// WriteLink buffers a new pointer and mark bit for the link v inside tx.
func WriteLink[T any](tx Tx, v *mvar.Var[T], p *T, mark bool) {
	tx.WriteWord(v.Word(), mvar.LinkRaw(p, mark))
}

// ReadFlag reads the transactional boolean v inside tx.
//
//compose:noalloc
func ReadFlag(tx Tx, v *mvar.Flag) bool {
	return mvar.FlagValue(tx.ReadWord(v.Word()))
}

// ReadInt reads the transactional integer v inside tx (allocation-free).
//
//compose:noalloc
func ReadInt(tx Tx, v *mvar.IntVar) int64 {
	return mvar.IntValue(tx.ReadWord(v.Word()))
}

// WriteInt buffers a new value for the transactional integer v inside tx.
//
//compose:noalloc
func WriteInt(tx Tx, v *mvar.IntVar, n int64) {
	tx.WriteWord(v.Word(), mvar.IntRaw(n))
}

// WriteFlag buffers a new value for the transactional boolean v inside tx.
//
//compose:noalloc
func WriteFlag(tx Tx, v *mvar.Flag, b bool) {
	tx.WriteWord(v.Word(), mvar.FlagRaw(b))
}
