package stm

import (
	"fmt"
	"strings"
)

// ConflictCause classifies why a transaction attempt aborted. Engines tag
// every conflict site with the cause that made it give up, the abort is
// counted per cause in Stats, and the cause is handed to the thread's
// ContentionManager so retry policy can react to *why* transactions abort
// — lock-busy storms want different treatment than validation failures.
//
// The zero value CauseUnknown is reserved for conflicts whose origin the
// driver cannot see (e.g. an engine returning the bare ErrConflict
// sentinel from Commit).
type ConflictCause uint8

const (
	// CauseUnknown marks a conflict of unclassified origin.
	CauseUnknown ConflictCause = iota
	// CauseReadValidation: a read observed a locked, changing, or
	// too-new location (invisible-read post-validation failed).
	CauseReadValidation
	// CauseLockBusy: a write lock could not be acquired — at encounter
	// time for eager engines (LSA, SwissTM) or at commit time for
	// deferred-update engines (OE-STM, TL2).
	CauseLockBusy
	// CauseSnapshotExtension: a lazy snapshot extension failed — the
	// read set no longer validated at the newer clock value.
	CauseSnapshotExtension
	// CauseCommitValidation: commit-time (or nested-commit-time)
	// validation of the protected read set failed.
	CauseCommitValidation
	// CauseElasticWindow: the elastic sliding window's cut consistency
	// broke — an immediate past read of a read-only prefix changed.
	CauseElasticWindow
	// CauseDoomed: an engine-level contention manager doomed this
	// transaction in favour of a conflicting one (SwissTM's greedy
	// write/write arbitration).
	CauseDoomed
	// CauseExplicit: user or library code forced a retry via Conflict
	// (e.g. the eec structures aborting when a traversal window moved).
	CauseExplicit

	// NumCauses is the number of distinct causes; per-cause counter
	// arrays are sized by it.
	NumCauses = int(CauseExplicit) + 1
)

// causeNames indexes the display names by cause.
var causeNames = [NumCauses]string{
	CauseUnknown:           "unknown",
	CauseReadValidation:    "read-validation",
	CauseLockBusy:          "lock-busy",
	CauseSnapshotExtension: "snapshot-extension",
	CauseCommitValidation:  "commit-validation",
	CauseElasticWindow:     "elastic-window",
	CauseDoomed:            "doomed",
	CauseExplicit:          "explicit",
}

// String returns the hyphenated lower-case name of the cause.
func (c ConflictCause) String() string {
	if int(c) < NumCauses {
		return causeNames[c]
	}
	return fmt.Sprintf("cause(%d)", uint8(c))
}

// Slug returns the cause name in snake_case, the form used for CSV column
// names.
func (c ConflictCause) Slug() string {
	return strings.ReplaceAll(c.String(), "-", "_")
}

// Causes lists every cause in counter order — the iteration order of
// per-cause columns in reports.
func Causes() [NumCauses]ConflictCause {
	var out [NumCauses]ConflictCause
	for i := range out {
		out[i] = ConflictCause(i)
	}
	return out
}

// conflictPanics pre-boxes one conflictSignal per cause so Abort never
// allocates: the retry path must stay allocation-free, and panic payloads
// of interface type would otherwise box per abort.
var conflictPanics = func() [NumCauses]any {
	var out [NumCauses]any
	for i := range out {
		out[i] = conflictSignal{cause: ConflictCause(i)}
	}
	return out
}()

// Abort aborts the current transaction attempt with a typed cause and
// unwinds to the outermost Atomic, which rolls back, records the cause,
// consults the contention manager and retries. Engines call it from their
// conflict sites; user code should prefer Conflict.
//
//compose:noalloc
func Abort(cause ConflictCause) {
	if int(cause) >= NumCauses {
		cause = CauseUnknown
	}
	panic(conflictPanics[cause])
}

// ConflictError is a conflict with a cause attached, returned by engine
// Commit implementations in place of the bare ErrConflict sentinel. It
// matches errors.Is(err, ErrConflict), so callers that only care *that* a
// conflict happened keep working; the Atomic driver extracts the cause
// for telemetry and contention management.
type ConflictError struct{ cause ConflictCause }

// Error implements error.
func (e *ConflictError) Error() string {
	return "stm: transaction conflict (" + e.cause.String() + ")"
}

// Cause reports why the conflict happened.
func (e *ConflictError) Cause() ConflictCause { return e.cause }

// Is makes errors.Is(err, ErrConflict) hold for every ConflictError.
func (e *ConflictError) Is(target error) bool { return target == ErrConflict }

// conflictErrs pre-allocates one ConflictError per cause so engine commit
// paths return cause-carrying conflicts without allocating.
var conflictErrs = func() [NumCauses]*ConflictError {
	var out [NumCauses]*ConflictError
	for i := range out {
		out[i] = &ConflictError{cause: ConflictCause(i)}
	}
	return out
}()

// ConflictOf returns the shared cause-carrying conflict error for a cause.
// The result satisfies errors.Is(err, ErrConflict).
//
//compose:noalloc
func ConflictOf(cause ConflictCause) error {
	if int(cause) >= NumCauses {
		cause = CauseUnknown
	}
	return conflictErrs[cause]
}

// CauseOf extracts the conflict cause from an error: the attached cause of
// a ConflictError (or RetryExhaustedError), CauseUnknown for the bare
// ErrConflict sentinel or any other error.
func CauseOf(err error) ConflictCause {
	switch e := err.(type) {
	case *ConflictError:
		return e.cause
	case *RetryExhaustedError:
		return e.Cause
	case *CancelledError:
		return e.Cause
	}
	return CauseUnknown
}

// CancelledError is returned by Atomic when an attempt aborted after the
// thread was cancelled (Thread.Cancel): the call gave up instead of
// retrying. It matches errors.Is(err, ErrConflict), so callers that only
// test for a conflict outcome treat it like exhaustion.
type CancelledError struct {
	// Attempts is how many times the transaction was executed.
	Attempts int
	// Cause is why the final attempt aborted.
	Cause ConflictCause
}

// Error implements error.
func (e *CancelledError) Error() string {
	return fmt.Sprintf("stm: transaction conflict: cancelled after %d attempts (last cause: %s)",
		e.Attempts, e.Cause)
}

// Is makes errors.Is(err, ErrConflict) hold.
func (e *CancelledError) Is(target error) bool { return target == ErrConflict }

// Unwrap exposes the sentinel for errors.Unwrap chains.
func (e *CancelledError) Unwrap() error { return ErrConflict }

// RetryExhaustedError is returned by Atomic when Thread.MaxRetries is set
// and every attempt aborted: it carries the attempt count and the last
// conflict's cause instead of losing the diagnosis to a bare sentinel. It
// matches errors.Is(err, ErrConflict).
type RetryExhaustedError struct {
	// Attempts is how many times the transaction was executed.
	Attempts int
	// Cause is why the final attempt aborted.
	Cause ConflictCause
}

// Error implements error.
func (e *RetryExhaustedError) Error() string {
	return fmt.Sprintf("stm: transaction conflict: retries exhausted after %d attempts (last cause: %s)",
		e.Attempts, e.Cause)
}

// Is makes errors.Is(err, ErrConflict) hold: exhaustion is still a
// conflict outcome.
func (e *RetryExhaustedError) Is(target error) bool { return target == ErrConflict }

// Unwrap exposes the sentinel for errors.Unwrap chains.
func (e *RetryExhaustedError) Unwrap() error { return ErrConflict }
