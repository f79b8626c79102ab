// Package stm defines the engine-agnostic transactional programming layer:
// the TM and Tx interfaces every engine implements, per-goroutine Thread
// contexts, and the Atomic driver that runs transactions with conflict
// retry and nesting.
//
// The paper's programming model ("begin[relaxed] ... end" regions, §VI) is
// rendered in Go as
//
//	th := stm.NewThread(tm)
//	th.Atomic(stm.Elastic, func(tx stm.Tx) error { ... })
//
// Calling Atomic while a transaction is already open on the thread starts
// a nested (child) transaction — this is exactly the paper's notion of
// composition: the child passes or drops its conflict information at its
// commit depending on the engine (outheritance or not).
//
//compose:hotpath
package stm

import (
	"errors"
	"fmt"

	"oestm/internal/mvar"
)

// Kind selects the transactional model for one transaction, mirroring the
// paper's begin[relaxed] region marker. Engines without a relaxed mode
// treat every kind as Regular.
type Kind uint8

const (
	// Regular requests classic (serializable) transactional semantics.
	Regular Kind = iota
	// Elastic requests the elastic model of Felber et al.: conflicts on
	// the transaction's read-only prefix are ignored.
	Elastic
)

// String returns the lower-case name of the kind.
func (k Kind) String() string {
	switch k {
	case Regular:
		return "regular"
	case Elastic:
		return "elastic"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Tx is the operation interface transactions expose to user code. Read and
// Write never return errors: conflicts abort the transaction by panicking
// with a private signal that the outermost Atomic recovers, so data
// structure code reads like its sequential counterpart (the paper's Fig. 5
// point).
//
// The word-level methods (ReadWord/WriteWord) are the allocation-free hot
// path: they move opaque mvar.Raw payloads between typed variables and the
// engine's flat read/write sets. User code reaches them through the typed
// helpers (ReadPtr, WritePtr, ReadLink, WriteLink, ReadFlag, WriteFlag)
// rather than directly.
// Read/Write are the untyped convenience surface over mvar.AnyVar, which
// boxes values.
type Tx interface {
	// Read returns the value of v as observed by this transaction.
	Read(v *mvar.AnyVar) any
	// Write buffers (or applies, engine-dependent) a new value for v.
	Write(v *mvar.AnyVar, val any)
	// ReadWord returns the raw payload of w as observed by this
	// transaction.
	ReadWord(w *mvar.Word) mvar.Raw
	// WriteWord buffers (or applies, engine-dependent) a new raw payload
	// for w.
	WriteWord(w *mvar.Word, r mvar.Raw)
	// Kind reports the transactional model this transaction runs under.
	Kind() Kind
}

// TxControl extends Tx with the lifecycle methods the Atomic driver uses.
// User code never calls these directly.
type TxControl interface {
	Tx
	// Commit attempts to commit. It returns nil on success, ErrConflict
	// if the transaction must be retried, or another error.
	Commit() error
	// Rollback discards the transaction. It must be safe to call after a
	// conflict was raised part-way through execution or commit.
	Rollback()
}

// TM is a transactional memory engine.
type TM interface {
	// Name identifies the engine ("oestm", "tl2", ...).
	Name() string
	// SupportsElastic reports whether the engine honours Kind Elastic.
	SupportsElastic() bool
	// Begin starts a top-level transaction on the given thread.
	Begin(th *Thread, k Kind) TxControl
	// BeginNested starts a child transaction of parent. Engines with flat
	// nesting may return FlatChild(parent).
	BeginNested(th *Thread, parent TxControl, k Kind) TxControl
}

// ErrConflict is returned by TxControl.Commit when the transaction lost a
// conflict and must be re-executed. The Atomic driver retries on it.
var ErrConflict = errors.New("stm: transaction conflict")

// conflictSignal is the private panic payload used to unwind user code
// when a conflict is detected during execution. Only Atomic recovers it.
// It carries the typed ConflictCause of the abort; one value per cause is
// pre-boxed (see conflictPanics in cause.go), so the retry path stays
// allocation-free.
type conflictSignal struct{ cause ConflictCause }

// userAbort is the private panic payload used to unwind an entire nesting
// of transactions when user code returns an error from a nested region.
type userAbort struct{ err error }

// Conflict aborts the current transaction attempt and unwinds to the
// outermost Atomic, which rolls back and retries. User and library code
// (e.g. the eec structures, when a traversal window moves) call it to
// force a retry; the abort is recorded under CauseExplicit. The reason is
// purely diagnostic (a static description of the conflict class) and is
// not carried on the unwind. Engine conflict sites use Abort with their
// specific ConflictCause instead.
func Conflict(reason string) {
	_ = reason
	Abort(CauseExplicit)
}

// FlatChild wraps a parent transaction as a flat-nested child: operations
// delegate to the parent, child commit is a no-op (the parent keeps all
// conflict information until its own commit — the classic-transaction
// instantiation of outheritance, §I), and child rollback defers to the
// enclosing retry machinery. Wrapping an already-flat child returns it
// unchanged: deeper flat nesting is behaviourally identical, and reusing
// the wrapper keeps arbitrarily deep compositions allocation-free.
func FlatChild(parent TxControl) TxControl {
	if f, ok := parent.(flatChild); ok {
		return f
	}
	return flatChild{parent}
}

// FlatChildOn is FlatChild with the boxed wrapper cached on the thread:
// engines that pool their top-level transaction frames (all of them)
// hand the same parent value to every composition on a thread, so after
// the first nested begin the wrapper is reused and flat nesting becomes
// allocation-free — the nested counterpart of the pooled Begin.
func FlatChildOn(th *Thread, parent TxControl) TxControl {
	if f, ok := parent.(flatChild); ok {
		return f
	}
	if th.flatFor == parent {
		return th.flatChild
	}
	c := flatChild{parent}
	th.flatFor, th.flatChild = parent, c
	return c
}

type flatChild struct{ TxControl }

func (flatChild) Commit() error { return nil }
func (flatChild) Rollback()     {}
