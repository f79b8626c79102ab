package stm

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"oestm/internal/mvar"
)

// fakeTM is a minimal single-threaded engine used to unit-test the Atomic
// driver independently of any real STM: writes apply directly with an
// undo log, nesting is flat.
type fakeTM struct {
	begun, nestedBegun int
	commitErrs         []error // consumed by successive commits
}

func (f *fakeTM) Name() string          { return "fake" }
func (f *fakeTM) SupportsElastic() bool { return false }

func (f *fakeTM) Begin(th *Thread, k Kind) TxControl {
	f.begun++
	return &fakeTx{tm: f, kind: k}
}

func (f *fakeTM) BeginNested(th *Thread, parent TxControl, k Kind) TxControl {
	f.nestedBegun++
	return FlatChild(parent)
}

type undo struct {
	w   *mvar.Word
	old mvar.Raw
}

type fakeTx struct {
	tm   *fakeTM
	kind Kind
	log  []undo
}

func (t *fakeTx) Kind() Kind              { return t.kind }
func (t *fakeTx) Read(v *mvar.AnyVar) any { return mvar.AnyValue(t.ReadWord(v.Word())) }
func (t *fakeTx) Write(v *mvar.AnyVar, val any) {
	t.WriteWord(v.Word(), mvar.AnyRaw(val))
}

func (t *fakeTx) ReadWord(w *mvar.Word) mvar.Raw { return w.LoadRaw() }
func (t *fakeTx) WriteWord(w *mvar.Word, r mvar.Raw) {
	t.log = append(t.log, undo{w, w.LoadRaw()})
	w.StoreLockedRaw(r)
}

func (t *fakeTx) Commit() error {
	if len(t.tm.commitErrs) > 0 {
		err := t.tm.commitErrs[0]
		t.tm.commitErrs = t.tm.commitErrs[1:]
		if err != nil {
			t.Rollback()
			return err
		}
	}
	t.log = nil
	return nil
}

func (t *fakeTx) Rollback() {
	for i := len(t.log) - 1; i >= 0; i-- {
		t.log[i].w.StoreLockedRaw(t.log[i].old)
	}
	t.log = nil
}

func TestKindString(t *testing.T) {
	if Regular.String() != "regular" || Elastic.String() != "elastic" {
		t.Fatalf("kind strings: %q %q", Regular, Elastic)
	}
	if got := Kind(9).String(); got != "kind(9)" {
		t.Fatalf("unknown kind string = %q", got)
	}
}

func TestStats(t *testing.T) {
	s := Stats{Commits: 3, Aborts: 1}
	if got := s.AbortRate(); got != 25 {
		t.Fatalf("abort rate = %v, want 25", got)
	}
	var zero Stats
	if zero.AbortRate() != 0 {
		t.Fatal("zero stats must have zero abort rate")
	}
	s.Add(Stats{Commits: 1, Aborts: 3, NestedBegins: 2, ReadOnly: 1})
	if s.Commits != 4 || s.Aborts != 4 || s.NestedBegins != 2 || s.ReadOnly != 1 {
		t.Fatalf("after Add: %+v", s)
	}
}

func TestNewThreadUniqueIDs(t *testing.T) {
	tm := &fakeTM{}
	a, b := NewThread(tm), NewThread(tm)
	if a.ID == b.ID {
		t.Fatal("thread IDs must be unique")
	}
	if a.Rand == nil || b.Rand == nil {
		t.Fatal("threads must carry a PRNG")
	}
}

func TestAtomicCommits(t *testing.T) {
	tm := &fakeTM{}
	th := NewThread(tm)
	v := mvar.New(1)
	if err := th.Atomic(Regular, func(tx Tx) error {
		tx.Write(v, 2)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if v.Load() != 2 {
		t.Fatalf("v = %v, want 2", v.Load())
	}
	if th.Stats.Commits != 1 {
		t.Fatalf("commits = %d", th.Stats.Commits)
	}
	if th.InTx() {
		t.Fatal("thread still in transaction after Atomic")
	}
}

func TestAtomicRetriesOnCommitConflict(t *testing.T) {
	tm := &fakeTM{commitErrs: []error{ErrConflict, ErrConflict, nil}}
	th := NewThread(tm)
	runs := 0
	if err := th.Atomic(Regular, func(tx Tx) error {
		runs++
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if runs != 3 {
		t.Fatalf("runs = %d, want 3", runs)
	}
	if th.Stats.Aborts != 2 || th.Stats.Commits != 1 {
		t.Fatalf("stats = %+v", th.Stats)
	}
}

func TestAtomicRetriesOnConflictPanic(t *testing.T) {
	tm := &fakeTM{}
	th := NewThread(tm)
	runs := 0
	if err := th.Atomic(Regular, func(tx Tx) error {
		runs++
		if runs < 2 {
			Conflict("forced")
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if runs != 2 {
		t.Fatalf("runs = %d, want 2", runs)
	}
}

func TestAtomicMaxRetries(t *testing.T) {
	tm := &fakeTM{}
	th := NewThread(tm)
	th.MaxRetries = 4
	runs := 0
	err := th.Atomic(Regular, func(tx Tx) error {
		runs++
		Conflict("always")
		return nil
	})
	if !errors.Is(err, ErrConflict) {
		t.Fatalf("err = %v, want ErrConflict", err)
	}
	if runs != 4 {
		t.Fatalf("runs = %d, want 4", runs)
	}
	if th.Err() != err {
		t.Fatalf("Err() = %v, want the exhausted exit %v", th.Err(), err)
	}
}

// TestCancelEndsWedgedAtomic wedges an Atomic call (every attempt
// conflicts, no retry budget) and cancels it from another goroutine: the
// call must return promptly with a typed, ErrConflict-matching error that
// is also kept as the thread's sticky Err, and ClearErr must make the
// thread usable again.
func TestCancelEndsWedgedAtomic(t *testing.T) {
	th := NewThread(&fakeTM{})
	started := make(chan struct{})
	done := make(chan error)
	go func() {
		runs := 0
		done <- th.Atomic(Regular, func(Tx) error {
			if runs++; runs == 1 {
				close(started)
			}
			Conflict("wedged")
			return nil
		})
	}()
	<-started
	time.Sleep(10 * time.Millisecond)
	cancelled := time.Now()
	th.Cancel()
	var err error
	select {
	case err = <-done:
	case <-time.After(time.Second):
		t.Fatal("a cancelled Atomic was still retrying after 1s")
	}
	t.Logf("cancelled exit after %v: %v", time.Since(cancelled), err)
	var ce *CancelledError
	if !errors.As(err, &ce) || !errors.Is(err, ErrConflict) || ce.Attempts < 1 || ce.Cause != CauseExplicit || CauseOf(err) != CauseExplicit {
		t.Fatalf("err = %#v, want a *CancelledError matching ErrConflict with cause explicit", err)
	}
	if th.Err() != err {
		t.Fatalf("Err() = %v, want the cancelled exit", th.Err())
	}
	// A later commit neither clears the sticky error nor is cancelled.
	if err := th.Atomic(Regular, func(Tx) error { return nil }); err != nil || th.Err() == nil {
		t.Fatalf("commit after cancel: err %v, sticky %v", err, th.Err())
	}
	th.ClearErr()
	runs := 0
	if err := th.Atomic(Regular, func(Tx) error {
		if runs++; runs < 3 {
			Conflict("transient")
		}
		return nil
	}); err != nil || th.Err() != nil || runs != 3 {
		t.Fatalf("after ClearErr: err %v, sticky %v, runs %d; want a normal retried commit", err, th.Err(), runs)
	}
}

func TestAtomicUserErrorNoRetry(t *testing.T) {
	tm := &fakeTM{}
	th := NewThread(tm)
	sentinel := errors.New("boom")
	v := mvar.New(1)
	runs := 0
	err := th.Atomic(Regular, func(tx Tx) error {
		runs++
		tx.Write(v, 99)
		return sentinel
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v", err)
	}
	if runs != 1 {
		t.Fatalf("runs = %d, want 1 (user errors must not retry)", runs)
	}
	if v.Load() != 1 {
		t.Fatalf("write leaked: %v", v.Load())
	}
}

func TestAtomicForeignPanicPropagates(t *testing.T) {
	tm := &fakeTM{}
	th := NewThread(tm)
	v := mvar.New(1)
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("expected panic to propagate")
		}
		if fmt.Sprint(r) != "user panic" {
			t.Fatalf("unexpected panic payload: %v", r)
		}
		if v.Load() != 1 {
			t.Fatalf("write not rolled back on foreign panic: %v", v.Load())
		}
		if th.InTx() {
			t.Fatal("thread still in transaction after panic")
		}
	}()
	_ = th.Atomic(Regular, func(tx Tx) error {
		tx.Write(v, 2)
		panic("user panic")
	})
}

func TestNestedUsesBeginNested(t *testing.T) {
	tm := &fakeTM{}
	th := NewThread(tm)
	if err := th.Atomic(Regular, func(tx Tx) error {
		return th.Atomic(Regular, func(tx2 Tx) error { return nil })
	}); err != nil {
		t.Fatal(err)
	}
	if tm.begun != 1 {
		t.Fatalf("top-level begins = %d, want 1", tm.begun)
	}
	if tm.nestedBegun != 1 {
		t.Fatalf("nested begins = %d, want 1", tm.nestedBegun)
	}
	if th.Stats.NestedBegins != 1 {
		t.Fatalf("nested stat = %d, want 1", th.Stats.NestedBegins)
	}
}

func TestDepthTracking(t *testing.T) {
	tm := &fakeTM{}
	th := NewThread(tm)
	if th.Depth() != 0 {
		t.Fatal("depth outside tx must be 0")
	}
	_ = th.Atomic(Regular, func(tx Tx) error {
		if th.Depth() != 1 {
			t.Errorf("depth = %d, want 1", th.Depth())
		}
		_ = th.Atomic(Regular, func(tx2 Tx) error {
			if th.Depth() != 2 {
				t.Errorf("depth = %d, want 2", th.Depth())
			}
			return nil
		})
		if th.Depth() != 1 {
			t.Errorf("depth after child = %d, want 1", th.Depth())
		}
		return nil
	})
	if th.Depth() != 0 {
		t.Fatal("depth must return to 0")
	}
}

func TestCurrentExposed(t *testing.T) {
	tm := &fakeTM{}
	th := NewThread(tm)
	if th.Current() != nil {
		t.Fatal("Current outside tx must be nil")
	}
	_ = th.Atomic(Regular, func(tx Tx) error {
		if th.Current() == nil {
			t.Error("Current inside tx must be non-nil")
		}
		return nil
	})
}

func TestReadT(t *testing.T) {
	tm := &fakeTM{}
	th := NewThread(tm)
	v := mvar.New(7)
	var zero mvar.AnyVar
	_ = th.Atomic(Regular, func(tx Tx) error {
		if got := ReadT[int](tx, v); got != 7 {
			t.Errorf("ReadT = %d, want 7", got)
		}
		if got := ReadT[int](tx, &zero); got != 0 {
			t.Errorf("ReadT zero = %d, want 0", got)
		}
		if got := ReadT[*fakeTM](tx, &zero); got != nil {
			t.Errorf("ReadT nil pointer = %v, want nil", got)
		}
		return nil
	})
}

func TestFlatChildDelegates(t *testing.T) {
	tm := &fakeTM{}
	parent := tm.Begin(NewThread(tm), Regular)
	child := FlatChild(parent)
	v := mvar.New(1)
	child.Write(v, 5)
	if got := child.Read(v); got != 5 {
		t.Fatalf("flat child read = %v, want 5", got)
	}
	if err := child.Commit(); err != nil {
		t.Fatalf("flat child commit must be a no-op success: %v", err)
	}
	child.Rollback() // must not undo the parent's buffered state
	if got := parent.Read(v); got != 5 {
		t.Fatalf("parent lost write after flat child rollback: %v", got)
	}
}
