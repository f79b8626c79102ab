package mvar

import (
	"sync/atomic"
	"unsafe"
)

const lockFlag uint64 = 1

// PayloadBits is the width of the version/owner field of a lock word; see
// the package comment for the budget discussion.
const PayloadBits = 63

// MaxVersion is the largest commit version a lock word can carry.
const MaxVersion uint64 = 1<<PayloadBits - 1

// Word is a single transactional memory word: the versioned lock word plus
// raw payload storage. The zero value is an unlocked word at version 0
// holding a zero payload.
//
// A Word is exactly its three cells (24 bytes) and carries no padding, so
// it shares a cache line with the node fields around it; a struct whose
// words are written by different goroutines pads between them itself. See
// "Memory layout" in the package comment.
//
// Engines operate exclusively on *Word and Raw; user code holds one of the
// typed views (Var[T], Flag, AnyVar) that embed a Word.
type Word struct {
	meta atomic.Uint64
	ptr  atomic.Pointer[byte]
	bits atomic.Uint64
}

// Raw is the uniform payload currency between typed variables and engines:
// one GC-visible pointer word plus one scalar word. Only the typed
// variable that owns a Word knows which cell is meaningful; engines treat
// Raw as opaque (it is comparable, which is all tracing needs). The zero
// Raw is the payload of a zero Word.
type Raw struct {
	p *byte
	b uint64
}

// Worder is satisfied by every typed variable (and by *Word itself); it
// lets variable-agnostic code such as the history recorder accept any
// transactional variable.
type Worder interface{ Word() *Word }

// Word returns the word itself, so *Word satisfies Worder.
func (w *Word) Word() *Word { return w }

// Meta returns the current lock word.
//
//compose:noalloc
func (w *Word) Meta() uint64 { return w.meta.Load() }

// LoadRaw returns the current raw payload without any consistency
// protocol. Callers must hold the write lock, be the only goroutine able
// to reach the word, or wrap the load in ReadConsistent-style validation.
//
//compose:noalloc
func (w *Word) LoadRaw() Raw { return Raw{w.ptr.Load(), w.bits.Load()} }

// ReadConsistent performs the standard optimistic read: sample the lock
// word, load the payload cells, re-sample. It reports ok=false when the
// word was locked or changed underneath, in which case the payload must be
// discarded. On success it returns the payload and the version it was read
// at. Because writers only touch the cells while the lock bit is set, an
// unchanged unlocked meta brackets an untorn (pointer, bits) pair.
//
//compose:noalloc
func (w *Word) ReadConsistent() (r Raw, version uint64, ok bool) {
	m1 := w.meta.Load()
	if Locked(m1) {
		return Raw{}, 0, false
	}
	r = w.LoadRaw()
	m2 := w.meta.Load()
	if m1 != m2 {
		return Raw{}, 0, false
	}
	return r, Version(m1), true
}

// TryLock attempts to acquire the write lock by CASing the expected
// (unlocked) lock word to a locked word owned by the given thread slot.
//
//compose:noalloc
func (w *Word) TryLock(owner int, expect uint64) bool {
	if Locked(expect) {
		return false
	}
	return w.meta.CompareAndSwap(expect, lockWord(owner))
}

// Unlock releases the write lock, publishing the given commit version.
// The caller must hold the lock.
//
//compose:noalloc
func (w *Word) Unlock(version uint64) { w.meta.Store(version << 1) }

// Restore reverts the lock word to a previously sampled (unlocked) value.
// Used when a transaction aborts after acquiring write locks.
//
//compose:noalloc
func (w *Word) Restore(oldMeta uint64) { w.meta.Store(oldMeta) }

// StoreLockedRaw installs a new raw payload. The caller must hold the
// write lock (or be the only goroutine able to reach the word).
//
//compose:noalloc
func (w *Word) StoreLockedRaw(r Raw) {
	w.ptr.Store(r.p)
	w.bits.Store(r.b)
}

// InitRaw (re)initialises the payload of a word before it is shared. It
// must not be called on a word that concurrent transactions may already
// access.
func (w *Word) InitRaw(r Raw) {
	w.ptr.Store(r.p)
	w.bits.Store(r.b)
}

// Locked reports whether a lock word is write-locked.
//
//compose:noalloc
func Locked(meta uint64) bool { return meta&lockFlag != 0 }

// Version extracts the commit version from an unlocked lock word.
//
//compose:noalloc
func Version(meta uint64) uint64 { return meta >> 1 }

// Owner extracts the owner thread slot from a locked lock word.
func Owner(meta uint64) int { return int(meta >> 1) }

// errNegativeOwner is pre-boxed: panicking with a package-level any
// carries no allocation site, keeping lockWord (and TryLock, which
// inlines it) verifiable by //compose:noalloc.
var errNegativeOwner any = "mvar: negative lock owner slot"

// lockWord builds a locked lock word owned by the given thread slot. See
// the package comment: every non-negative int fits the 63-bit owner
// budget; negative owners are the only values that would alias, so they
// are rejected here rather than silently encoded.
func lockWord(owner int) uint64 {
	if owner < 0 {
		panic(errNegativeOwner)
	}
	return lockFlag | uint64(owner)<<1
}

// VersionWord builds an unlocked lock word carrying the given version.
func VersionWord(version uint64) uint64 { return version << 1 }

// ---------------------------------------------------------------------
// Raw encodings. These are the only functions that interpret Raw's cells;
// each typed variable uses exactly one encoding for its whole lifetime,
// which is what makes the pointer puns below sound.

// RefRaw encodes a *T into the pointer cell.
func RefRaw[T any](p *T) Raw { return Raw{p: (*byte)(unsafe.Pointer(p))} }

// RefValue decodes a *T from the pointer cell.
func RefValue[T any](r Raw) *T { return (*T)(unsafe.Pointer(r.p)) }

// LinkRaw encodes a link: a *T in the pointer cell and a mark bit in the
// scalar cell. RefRaw(p) is LinkRaw(p, false), so a Var[T] may be written
// by either encoding and read by either decoder.
func LinkRaw[T any](p *T, mark bool) Raw {
	r := RefRaw(p)
	if mark {
		r.b = 1
	}
	return r
}

// LinkValue decodes a link into its pointer and its mark bit.
func LinkValue[T any](r Raw) (p *T, mark bool) { return RefValue[T](r), r.b != 0 }

// FlagRaw encodes a bool into the scalar cell.
//
//compose:noalloc
func FlagRaw(v bool) Raw {
	if v {
		return Raw{b: 1}
	}
	return Raw{}
}

// FlagValue decodes a bool from the scalar cell.
//
//compose:noalloc
func FlagValue(r Raw) bool { return r.b != 0 }

// IntRaw encodes an int64 into the scalar cell.
//
//compose:noalloc
func IntRaw(n int64) Raw { return Raw{b: uint64(n)} }

// IntValue decodes an int64 from the scalar cell.
//
//compose:noalloc
func IntValue(r Raw) int64 { return int64(r.b) }

// abox boxes an arbitrary interface value so it can live in the pointer
// cell. This is the only payload encoding that allocates on write; the
// typed encodings above are allocation-free.
type abox struct{ v any }

// AnyRaw encodes an arbitrary value into the pointer cell (boxing it).
func AnyRaw(v any) Raw {
	if v == nil {
		return Raw{}
	}
	return Raw{p: (*byte)(unsafe.Pointer(&abox{v}))}
}

// AnyValue decodes an arbitrary value from the pointer cell.
func AnyValue(r Raw) any {
	if r.p == nil {
		return nil
	}
	return (*abox)(unsafe.Pointer(r.p)).v
}

// ---------------------------------------------------------------------
// Typed variables.

// Var is a typed transactional variable holding a *T, stored directly in
// the word's pointer cell: reads and writes never box, so the hot paths of
// pointer-linked structures (list/skiplist/queue nodes) are
// allocation-free. The scalar cell may carry a mark bit beside the pointer
// (the link encoding, LinkRaw). The zero value is an unlocked variable at
// version 0 holding an unmarked nil.
type Var[T any] struct{ w Word }

// NewVar returns a Var initialised to p at version 0.
func NewVar[T any](p *T) *Var[T] {
	v := new(Var[T])
	v.Init(p)
	return v
}

// Word exposes the underlying memory word (for engines and tracers).
func (v *Var[T]) Word() *Word { return &v.w }

// Init (re)initialises the payload before the variable is shared.
func (v *Var[T]) Init(p *T) { v.w.InitRaw(RefRaw(p)) }

// Load returns the current committed pointer without a consistency
// protocol; see Word.LoadRaw for the caller obligations.
func (v *Var[T]) Load() *T { return RefValue[T](v.w.LoadRaw()) }

// Flag is a typed transactional boolean, stored in the word's scalar cell
// (no boxing). The zero value is an unlocked false.
type Flag struct{ w Word }

// Word exposes the underlying memory word.
func (f *Flag) Word() *Word { return &f.w }

// Init (re)initialises the payload before the flag is shared.
func (f *Flag) Init(v bool) { f.w.InitRaw(FlagRaw(v)) }

// Load returns the current committed value without a consistency
// protocol.
//
//compose:noalloc
func (f *Flag) Load() bool { return FlagValue(f.w.LoadRaw()) }

// IntVar is a typed transactional integer, stored in the word's scalar
// cell (no boxing): transactional counters and sequence numbers read and
// write it allocation-free. The zero value is an unlocked 0.
type IntVar struct{ w Word }

// Word exposes the underlying memory word.
func (v *IntVar) Word() *Word { return &v.w }

// Init (re)initialises the payload before the variable is shared.
func (v *IntVar) Init(n int64) { v.w.InitRaw(IntRaw(n)) }

// Load returns the current committed value without a consistency
// protocol.
//
//compose:noalloc
func (v *IntVar) Load() int64 { return IntValue(v.w.LoadRaw()) }

// ---------------------------------------------------------------------
// AnyVar: the untyped compatibility variable.

// AnyVar is a transactional variable holding an arbitrary value. Writes
// box the value (one allocation) so the current committed value can be
// installed with a single pointer store; prefer Var[T]/Flag/IntVar on hot
// paths (see the package comment for who still uses AnyVar).
// The zero value is an unlocked variable at version 0 holding nil.
type AnyVar struct{ w Word }

// New returns an AnyVar initialised to value v at version 0.
func New(v any) *AnyVar {
	x := new(AnyVar)
	x.Init(v)
	return x
}

// Word exposes the underlying memory word.
func (x *AnyVar) Word() *Word { return &x.w }

// Init (re)initialises the payload of a variable before it is shared. It
// must not be called on a variable that concurrent transactions may
// already access.
func (x *AnyVar) Init(v any) { x.w.InitRaw(AnyRaw(v)) }

// Meta returns the current lock word.
func (x *AnyVar) Meta() uint64 { return x.w.Meta() }

// Load returns the current committed value. Callers must implement a
// consistency protocol around it (see ReadConsistent) unless they hold the
// write lock.
func (x *AnyVar) Load() any { return AnyValue(x.w.LoadRaw()) }

// ReadConsistent performs the standard optimistic read on the underlying
// word, decoding the payload.
func (x *AnyVar) ReadConsistent() (v any, version uint64, ok bool) {
	r, version, ok := x.w.ReadConsistent()
	if !ok {
		return nil, 0, false
	}
	return AnyValue(r), version, true
}

// TryLock attempts to acquire the write lock; see Word.TryLock.
func (x *AnyVar) TryLock(owner int, expect uint64) bool { return x.w.TryLock(owner, expect) }

// Unlock releases the write lock, publishing the given commit version.
func (x *AnyVar) Unlock(version uint64) { x.w.Unlock(version) }

// Restore reverts the lock word to a previously sampled (unlocked) value.
func (x *AnyVar) Restore(oldMeta uint64) { x.w.Restore(oldMeta) }

// StoreLocked installs a new value. The caller must hold the write lock
// (or be the only goroutine able to reach the variable).
func (x *AnyVar) StoreLocked(v any) { x.w.StoreLockedRaw(AnyRaw(v)) }
