package stm

import (
	"math/rand/v2"
	"sync/atomic"
)

// threadIDs allocates globally unique thread slots. Slot numbers appear in
// lock words, so they must be small non-negative integers.
var threadIDs atomic.Int64

// Stats accumulates per-thread transaction counters. Threads are owned by
// a single goroutine, so the fields are plain integers; aggregate across
// threads only after the owning goroutines have stopped (or accept tearing
// in progress displays).
type Stats struct {
	Commits      uint64 // committed top-level transactions
	Aborts       uint64 // aborted attempts (each retry counts one)
	NestedBegins uint64 // child transactions started
	ReadOnly     uint64 // committed read-only top-level transactions

	// AbortsByCause breaks Aborts down by ConflictCause (indexed by the
	// cause value). The driver increments exactly one cause counter per
	// abort, so the entries always sum to Aborts.
	AbortsByCause [NumCauses]uint64
}

// AbortRate returns aborts/(commits+aborts) as a percentage, the metric
// the paper plots on the right-hand axes of Figs. 6-8.
func (s Stats) AbortRate() float64 {
	total := s.Commits + s.Aborts
	if total == 0 {
		return 0
	}
	return 100 * float64(s.Aborts) / float64(total)
}

// Add accumulates other into s.
func (s *Stats) Add(other Stats) {
	s.Commits += other.Commits
	s.Aborts += other.Aborts
	s.NestedBegins += other.NestedBegins
	s.ReadOnly += other.ReadOnly
	for i := range s.AbortsByCause {
		s.AbortsByCause[i] += other.AbortsByCause[i]
	}
}

// Diff returns s minus base, counter by counter — the window delta the
// harness computes between two snapshots of a running thread's stats.
func (s Stats) Diff(base Stats) Stats {
	out := s
	out.Commits -= base.Commits
	out.Aborts -= base.Aborts
	out.NestedBegins -= base.NestedBegins
	out.ReadOnly -= base.ReadOnly
	for i := range out.AbortsByCause {
		out.AbortsByCause[i] -= base.AbortsByCause[i]
	}
	return out
}

// Thread is the per-goroutine transactional context: it tracks the current
// transaction (enabling nesting/composition), carries a deterministic PRNG
// for backoff and workload decisions, and accumulates statistics.
//
// A Thread must only be used from one goroutine at a time; Cancel is the
// exception.
type Thread struct {
	// ID is the thread slot recorded in lock words while this thread
	// holds write locks.
	ID int
	// TM is the engine this thread runs transactions on.
	TM TM
	// Stats accumulates commit/abort counters.
	Stats Stats
	// Rand is a per-thread PRNG (used for backoff jitter; workloads and
	// data structures may share it).
	Rand *rand.Rand
	// MaxRetries, when non-zero, bounds the attempts of one Atomic call;
	// exceeding it returns a *RetryExhaustedError (matching ErrConflict)
	// carrying the attempt count and last conflict cause instead of
	// retrying forever. Intended for tests; production configurations
	// leave it 0.
	MaxRetries int

	// CM is the thread's contention manager, consulted between attempts
	// of a conflicted transaction. Nil means the built-in passive policy
	// (randomised exponential backoff). Policies may keep per-thread
	// state, so a CM instance must not be shared between threads.
	CM ContentionManager

	// EngineScratch is engine-owned per-thread state: engines cache their
	// pooled top-level transaction frame here so Begin does not allocate.
	// A thread is bound to one TM, so exactly one engine uses the slot;
	// only that engine may touch it.
	EngineScratch any

	// OpScratch is library-owned per-thread state: the e.e.c collections
	// cache their reusable operation frames (pre-bound transaction
	// closures) here so elementary operations do not allocate. Only the
	// collection layer may touch it.
	OpScratch any

	cur   TxControl
	depth int

	// flatFor/flatChild cache the boxed flat-nesting wrapper of the last
	// parent seen by FlatChildOn, so composed operations on flat-nesting
	// engines begin children allocation-free (engines pool their
	// top-level frames, so the parent value repeats per thread).
	flatFor   TxControl
	flatChild TxControl

	// cancel is the cancellation word: set by Cancel from any goroutine,
	// read by Atomic's retry loop. It and err come last: placed
	// between depth and flatFor they cost hot-counter ~5 % of its
	// throughput on 2 cores, a layout effect measured, not explained.
	cancel atomic.Bool
	// err is the sticky outcome of the last Atomic call that gave up
	// instead of committing; see Err.
	err error
}

// NewThread creates a thread context for tm with a unique slot and a
// PRNG seeded from the slot (deterministic given creation order).
func NewThread(tm TM) *Thread {
	id := int(threadIDs.Add(1))
	return &Thread{
		ID:   id,
		TM:   tm,
		Rand: rand.New(rand.NewPCG(uint64(id), 0x9e3779b97f4a7c15)),
	}
}

// InTx reports whether a transaction is currently open on this thread.
func (th *Thread) InTx() bool { return th.cur != nil }

// Current returns the innermost open transaction, or nil.
func (th *Thread) Current() TxControl { return th.cur }

// Depth returns the current nesting depth (0 outside any transaction).
func (th *Thread) Depth() int { return th.depth }

// Cancel asks the thread to stop retrying. It is the one Thread method
// that is safe to call from any goroutine. From then on, an Atomic call on
// the thread returns a *CancelledError at its next abort instead of
// retrying. A transaction that commits is not affected. The request stays in force until the owner calls ClearErr.
func (th *Thread) Cancel() { th.cancel.Store(true) }

// Err returns the sticky error of the last Atomic call on th that gave up
// instead of committing: a *CancelledError or a *RetryExhaustedError, both
// matching ErrConflict. The elementary e.e.c operations discard Atomic's
// result, so this is how their callers learn that one did not take
// effect. It stays set until the owner calls ClearErr.
func (th *Thread) Err() error { return th.err }

// ClearErr clears the sticky error and withdraws any cancellation request.
func (th *Thread) ClearErr() {
	th.err = nil
	th.cancel.Store(false)
}
