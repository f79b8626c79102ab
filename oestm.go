// Package oestm is the public facade of this repository: a Go
// implementation of "Composing Relaxed Transactions" (Gramoli, Guerraoui,
// Letia — IEEE IPDPS 2013).
//
// It exposes:
//
//   - OE-STM, a software transactional memory providing elastic (relaxed)
//     transactions that satisfy outheritance and therefore compose
//     (engines: NewOESTM; ablations: NewESTM, NewRegularOnlySTM);
//   - the classic-transaction baselines used by the paper's evaluation
//     (NewTL2, NewLSA, NewSwissTM), all driving the same transactional
//     memory words;
//   - the e.e.c composable collections (NewLinkedListSet, NewSkipListSet,
//     NewHashSet) whose bulk operations are obtained by composition;
//   - the transactional programming surface: per-goroutine Threads,
//     Atomic regions, Kinds, and raw transactional variables (Var) for
//     building new data structures.
//
// Quick start:
//
//	tm := oestm.NewOESTM()
//	th := oestm.NewThread(tm)
//	set := oestm.NewLinkedListSet()
//	set.Add(th, 1)
//	set.AddAll(th, []int{2, 3}) // atomic, composed from Add
//
// Composition: call any set operation — or open your own Atomic region —
// while a transaction is already open on the Thread, and it becomes a
// nested (composed) transaction whose conflict information is outherited
// to the parent:
//
//	th.Atomic(oestm.Elastic, func(oestm.Tx) error {
//		if !set.Contains(th, y) {
//			set.Add(th, x)
//		}
//		return nil // atomic insert-if-absent
//	})
package oestm

import (
	"oestm/internal/cm"
	"oestm/internal/core"
	"oestm/internal/eec"
	"oestm/internal/lsa"
	"oestm/internal/mvar"
	"oestm/internal/stm"
	"oestm/internal/swisstm"
	"oestm/internal/tl2"
)

// Kind selects the transactional model of a region.
type Kind = stm.Kind

const (
	// Regular requests classic (serializable) transactional semantics.
	Regular = stm.Regular
	// Elastic requests the elastic model: conflicts on the transaction's
	// read-only prefix are ignored.
	Elastic = stm.Elastic
)

// TM is a transactional memory engine.
type TM = stm.TM

// Tx is the in-transaction operation interface.
type Tx = stm.Tx

// Thread is the per-goroutine transactional context. Threads must not be
// shared between goroutines.
type Thread = stm.Thread

// Var is an untyped transactional variable holding an arbitrary value
// (writes box the value). For allocation-free hot paths prefer the typed
// Ref and Flag variables.
type Var = mvar.AnyVar

// Ref is a typed transactional variable holding a *T directly in the
// memory word's pointer cell: reads and writes never allocate.
type Ref[T any] = mvar.Var[T]

// Flag is a typed transactional boolean (no boxing).
type Flag = mvar.Flag

// Int is a typed transactional integer (no boxing) — transactional
// counters and sequence numbers for composed workloads.
type Int = mvar.IntVar

// Word is the engine-facing versioned-lock memory word every
// transactional variable is built on; the lock-word encoding and its
// 63-bit version/owner budgets are documented in internal/mvar.
type Word = mvar.Word

// Set is the composable integer-set abstraction of the e.e.c package.
type Set = eec.Set

// ErrConflict is the conflict sentinel every conflict-shaped error
// matches via errors.Is — including the *RetryExhaustedError a
// bounded-retry transaction returns when it gives up. Match with
// errors.Is(err, ErrConflict), not ==.
var ErrConflict = stm.ErrConflict

// ConflictCause classifies why a transaction attempt aborted; every abort
// is counted per cause in Thread.Stats.AbortsByCause and reported to the
// thread's ContentionManager.
type ConflictCause = stm.ConflictCause

// The conflict causes engines classify their abort sites with.
const (
	CauseReadValidation    = stm.CauseReadValidation
	CauseLockBusy          = stm.CauseLockBusy
	CauseSnapshotExtension = stm.CauseSnapshotExtension
	CauseCommitValidation  = stm.CauseCommitValidation
	CauseElasticWindow     = stm.CauseElasticWindow
	CauseDoomed            = stm.CauseDoomed
	CauseExplicit          = stm.CauseExplicit
)

// RetryExhaustedError is returned by Atomic when Thread.MaxRetries is
// exceeded; it carries the attempt count and the last conflict's cause
// and still matches errors.Is(err, ErrConflict).
type RetryExhaustedError = stm.RetryExhaustedError

// ContentionManager decides how a thread reacts to aborts; install one on
// Thread.CM. The built-in policies are available by name through
// NewContentionManager.
type ContentionManager = stm.ContentionManager

// NewContentionManager returns a fresh instance of the named contention
// policy ("passive", "aggressive", "adaptive"); ok is false for unknown
// names. Instances are per-thread and must not be shared.
func NewContentionManager(name string) (m ContentionManager, ok bool) { return cm.New(name) }

// ContentionManagerNames lists the registered contention policies,
// default first.
func ContentionManagerNames() []string { return cm.Names() }

// NewOESTM returns the paper's engine: elastic transactions with
// outheritance.
func NewOESTM() *core.TM { return core.New() }

// NewESTM returns the elastic engine without outheritance (E-STM); its
// compositions can violate atomicity — provided for demonstrations and
// ablations.
func NewESTM() *core.TM { return core.NewWithoutOutheritance() }

// NewRegularOnlySTM returns OE-STM with elasticity disabled (ablation).
func NewRegularOnlySTM() *core.TM { return core.NewRegularOnly() }

// NewTL2 returns the TL2 baseline engine.
func NewTL2() *tl2.TM { return tl2.New() }

// NewLSA returns the LSA baseline engine.
func NewLSA() *lsa.TM { return lsa.New() }

// NewSwissTM returns the SwissTM baseline engine.
func NewSwissTM() *swisstm.TM { return swisstm.New() }

// NewThread creates a transactional context bound to tm for the calling
// goroutine.
func NewThread(tm TM) *Thread { return stm.NewThread(tm) }

// NewVar returns an untyped transactional variable holding v.
func NewVar(v any) *Var { return mvar.New(v) }

// NewRef returns a typed transactional variable holding p.
func NewRef[T any](p *T) *Ref[T] { return mvar.NewVar(p) }

// Read reads v inside tx with a typed result.
func Read[T any](tx Tx, v *Var) T { return stm.ReadT[T](tx, v) }

// ReadRef reads the typed variable v inside tx (allocation-free).
func ReadRef[T any](tx Tx, v *Ref[T]) *T { return stm.ReadPtr(tx, v) }

// WriteRef buffers a new pointer for the typed variable v inside tx
// (allocation-free).
func WriteRef[T any](tx Tx, v *Ref[T], p *T) { stm.WritePtr(tx, v, p) }

// ReadFlag reads the transactional boolean v inside tx.
func ReadFlag(tx Tx, v *Flag) bool { return stm.ReadFlag(tx, v) }

// WriteFlag buffers a new value for the transactional boolean v inside
// tx.
func WriteFlag(tx Tx, v *Flag, b bool) { stm.WriteFlag(tx, v, b) }

// ReadInt reads the transactional integer v inside tx (allocation-free).
func ReadInt(tx Tx, v *Int) int64 { return stm.ReadInt(tx, v) }

// WriteInt buffers a new value for the transactional integer v inside
// tx.
func WriteInt(tx Tx, v *Int, n int64) { stm.WriteInt(tx, v, n) }

// Conflict aborts the current transaction attempt and retries it; for
// use inside Atomic regions.
func Conflict(reason string) { stm.Conflict(reason) }

// NewLinkedListSet returns the sorted linked-list set of e.e.c.
func NewLinkedListSet() *eec.LinkedListSet { return eec.NewLinkedListSet() }

// NewSkipListSet returns the skip-list set of e.e.c.
func NewSkipListSet() *eec.SkipListSet { return eec.NewSkipListSet() }

// NewHashSet returns the hash set of e.e.c with the given bucket count.
func NewHashSet(buckets int) *eec.HashSet { return eec.NewHashSet(buckets) }

// NewHashSetForLoad returns a hash set sized for the paper's load factor.
func NewHashSetForLoad(expectedElems int) *eec.HashSet {
	return eec.NewHashSetForLoad(expectedElems)
}

// NewSkipListMap returns the ordered transactional map of e.e.c (the
// composable counterpart of ConcurrentSkipListMap), from int keys to
// int64 values held unboxed in the nodes (overwrites allocate nothing).
func NewSkipListMap() *eec.SkipListMap { return eec.NewSkipListMap() }

// NewQueue returns the transactional FIFO queue of e.e.c (the composable
// counterpart of ConcurrentLinkedQueue).
func NewQueue() *eec.Queue { return eec.NewQueue() }

// InsertIfAbsent atomically inserts x into s only if y is absent (the
// paper's Fig. 1 composition).
func InsertIfAbsent(th *Thread, s Set, x, y int) bool {
	return eec.InsertIfAbsent(th, s, x, y)
}

// Move atomically transfers key between two sets.
func Move(th *Thread, from, to Set, key int) bool {
	return eec.Move(th, from, to, key)
}

// EarlyRelease removes v from the protected set of a running OE-STM
// transaction (DSTM-style early release, modelled in §II-A of the
// paper). It reports whether anything was released; transactions of the
// classic engines are rejected. Expert use only: releasing inside a
// composition forfeits weak composability (Theorem 4.3).
func EarlyRelease(tx Tx, v *Var) bool { return core.EarlyRelease(tx, v) }
