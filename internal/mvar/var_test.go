package mvar

import (
	"sync"
	"testing"
	"testing/quick"
	"unsafe"
)

func TestLockWordEncoding(t *testing.T) {
	f := func(version uint64) bool {
		version >>= 1 // keep within the 63-bit version space
		w := VersionWord(version)
		return !Locked(w) && Version(w) == version
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestOwnerEncoding(t *testing.T) {
	f := func(owner uint16) bool {
		w := lockWord(int(owner))
		return Locked(w) && Owner(w) == int(owner)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestNewAndLoad(t *testing.T) {
	v := New(42)
	if got := v.Load(); got != 42 {
		t.Fatalf("Load = %v, want 42", got)
	}
	if Locked(v.Meta()) {
		t.Fatal("fresh Var must be unlocked")
	}
	if Version(v.Meta()) != 0 {
		t.Fatalf("fresh Var version = %d, want 0", Version(v.Meta()))
	}
}

func TestZeroVarLoadsNil(t *testing.T) {
	var v AnyVar
	if got := v.Load(); got != nil {
		t.Fatalf("zero Var Load = %v, want nil", got)
	}
	if _, _, ok := v.ReadConsistent(); !ok {
		// zero Var is unlocked at version 0; consistent read must succeed
		t.Fatal("consistent read of zero Var failed")
	}
}

func TestTryLockUnlock(t *testing.T) {
	v := New("a")
	m := v.Meta()
	if !v.TryLock(7, m) {
		t.Fatal("TryLock on unlocked Var failed")
	}
	if !Locked(v.Meta()) || Owner(v.Meta()) != 7 {
		t.Fatalf("lock word = %#x, want locked by 7", v.Meta())
	}
	// second lock attempt must fail
	if v.TryLock(8, v.Meta()) {
		t.Fatal("TryLock succeeded on a locked Var")
	}
	v.StoreLocked("b")
	v.Unlock(5)
	if Locked(v.Meta()) {
		t.Fatal("Var still locked after Unlock")
	}
	if Version(v.Meta()) != 5 {
		t.Fatalf("version = %d, want 5", Version(v.Meta()))
	}
	if got := v.Load(); got != "b" {
		t.Fatalf("Load = %v, want b", got)
	}
}

func TestTryLockRejectsStaleExpect(t *testing.T) {
	v := New(1)
	stale := v.Meta()
	v.Unlock(9) // version moves on
	if v.TryLock(3, stale) {
		t.Fatal("TryLock with stale expected word succeeded")
	}
}

func TestRestore(t *testing.T) {
	v := New(1)
	v.Unlock(11)
	old := v.Meta()
	if !v.TryLock(2, old) {
		t.Fatal("lock failed")
	}
	v.Restore(old)
	if v.Meta() != old {
		t.Fatalf("meta = %#x, want %#x", v.Meta(), old)
	}
}

func TestReadConsistentRejectsLocked(t *testing.T) {
	v := New(1)
	if !v.TryLock(1, v.Meta()) {
		t.Fatal("lock failed")
	}
	if _, _, ok := v.ReadConsistent(); ok {
		t.Fatal("consistent read succeeded on locked Var")
	}
}

// TestReadConsistentUnderWriters hammers a Var with locked writers and
// checks that consistent readers only ever observe (value, version) pairs
// that were actually committed together.
func TestReadConsistentUnderWriters(t *testing.T) {
	v := New(uint64(0))
	var clock Clock
	const writers = 4
	const iters = 2000
	stop := make(chan struct{})
	var writerWG, readerWG sync.WaitGroup

	for w := 0; w < writers; w++ {
		writerWG.Add(1)
		go func(slot int) {
			defer writerWG.Done()
			for i := 0; i < iters; i++ {
				m := v.Meta()
				if Locked(m) || !v.TryLock(slot, m) {
					continue
				}
				ver := clock.Tick()
				v.StoreLocked(ver) // value equals its commit version
				v.Unlock(ver)
			}
		}(w + 1)
	}

	readerWG.Add(1)
	go func() {
		defer readerWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if val, ver, ok := v.ReadConsistent(); ok && ver != 0 {
				if val.(uint64) != ver {
					t.Errorf("torn read: value %v at version %d", val, ver)
					return
				}
			}
		}
	}()

	writerWG.Wait()
	close(stop)
	readerWG.Wait()
}

func TestClockMonotonic(t *testing.T) {
	var c Clock
	prev := c.Now()
	for i := 0; i < 1000; i++ {
		n := c.Tick()
		if n <= prev {
			t.Fatalf("clock not monotonic: %d after %d", n, prev)
		}
		prev = n
	}
}

func TestClockConcurrentUnique(t *testing.T) {
	var c Clock
	const goroutines = 8
	const per = 1000
	out := make(chan uint64, goroutines*per)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				out <- c.Tick()
			}
		}()
	}
	wg.Wait()
	close(out)
	seen := make(map[uint64]bool, goroutines*per)
	for ts := range out {
		if seen[ts] {
			t.Fatalf("duplicate commit timestamp %d", ts)
		}
		seen[ts] = true
	}
}

func TestTypedVarRoundTrip(t *testing.T) {
	type node struct{ k int }
	a, b := &node{1}, &node{2}
	v := NewVar(a)
	if v.Load() != a {
		t.Fatalf("Load = %p, want %p", v.Load(), a)
	}
	w := v.Word()
	m := w.Meta()
	if !w.TryLock(3, m) {
		t.Fatal("TryLock failed")
	}
	w.StoreLockedRaw(RefRaw(b))
	w.Unlock(1)
	if v.Load() != b {
		t.Fatalf("after typed store Load = %p, want %p", v.Load(), b)
	}
	raw, ver, ok := w.ReadConsistent()
	if !ok || ver != 1 || RefValue[node](raw) != b {
		t.Fatalf("ReadConsistent = (%v, %d, %v)", raw, ver, ok)
	}
	var zero Var[node]
	if zero.Load() != nil {
		t.Fatal("zero typed Var must load nil")
	}
}

// TestLinkRoundTrip pins the link encoding: pointer and mark travel
// together, the plain pointer decoders ignore the mark, and RefRaw is the
// unmarked link.
func TestLinkRoundTrip(t *testing.T) {
	type node struct{ k int }
	a := &node{1}
	for _, p := range []*node{nil, a} {
		for _, mark := range []bool{false, true} {
			r := LinkRaw(p, mark)
			if gp, gm := LinkValue[node](r); gp != p || gm != mark {
				t.Fatalf("LinkValue(LinkRaw(%p, %v)) = %p, %v", p, mark, gp, gm)
			}
			if RefValue[node](r) != p {
				t.Fatalf("RefValue of a link marked %v lost its pointer", mark)
			}
		}
	}
	if LinkRaw(a, false) != RefRaw(a) {
		t.Fatal("an unmarked link must encode exactly as RefRaw")
	}
	v := NewVar(a)
	w := v.Word()
	if !w.TryLock(1, w.Meta()) {
		t.Fatal("TryLock failed")
	}
	w.StoreLockedRaw(LinkRaw(a, true))
	w.Unlock(2)
	if v.Load() != a {
		t.Fatal("Var.Load of a marked link must still return the pointer")
	}
	if _, mark := LinkValue[node](w.LoadRaw()); !mark {
		t.Fatal("mark lost through the word")
	}
}

func TestFlagRoundTrip(t *testing.T) {
	var f Flag
	if f.Load() {
		t.Fatal("zero Flag must be false")
	}
	f.Init(true)
	if !f.Load() {
		t.Fatal("Init(true) not visible")
	}
	w := f.Word()
	if !w.TryLock(1, w.Meta()) {
		t.Fatal("TryLock failed")
	}
	w.StoreLockedRaw(FlagRaw(false))
	w.Unlock(4)
	if f.Load() {
		t.Fatal("flag still true after store")
	}
	if FlagValue(FlagRaw(true)) != true || FlagValue(FlagRaw(false)) != false {
		t.Fatal("FlagRaw/FlagValue do not round-trip")
	}
}

func TestAnyRawRoundTrip(t *testing.T) {
	for _, v := range []any{nil, 0, 42, "s", true, []int{1}} {
		got := AnyValue(AnyRaw(v))
		switch want := v.(type) {
		case []int:
			if got.([]int)[0] != want[0] {
				t.Fatalf("AnyValue(AnyRaw(%v)) = %v", v, got)
			}
		default:
			if got != v {
				t.Fatalf("AnyValue(AnyRaw(%v)) = %v", v, got)
			}
		}
	}
}

func TestNegativeOwnerPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("lockWord accepted a negative owner slot")
		}
	}()
	var w Word
	w.TryLock(-1, w.Meta())
}

// TestOwnerRoundTripFullBudget checks the documented encoding claim: any
// non-negative int owner survives the shift into bits 1..63 and back.
func TestOwnerRoundTripFullBudget(t *testing.T) {
	for _, owner := range []int{0, 1, 8191, 1 << 30, 1<<62 - 1, 1 << 62} {
		w := lockWord(owner)
		if !Locked(w) || Owner(w) != owner {
			t.Fatalf("owner %d round-tripped to %d", owner, Owner(w))
		}
	}
}

// TestLayoutWord pins the word at its three cells. Every link of every
// list and skip-list node is a Word, so padding here is a tax on each hop
// of each traversal; a struct whose words are written by different
// goroutines pads between them itself (eec.Queue does).
func TestLayoutWord(t *testing.T) {
	var (
		w Word
		v Var[int]
		f Flag
		i IntVar
		a AnyVar
	)
	for name, got := range map[string]uintptr{
		"Word": unsafe.Sizeof(w), "Var": unsafe.Sizeof(v), "Flag": unsafe.Sizeof(f),
		"IntVar": unsafe.Sizeof(i), "AnyVar": unsafe.Sizeof(a),
	} {
		if got != 24 {
			t.Errorf("Sizeof(%s) = %d, want 24", name, got)
		}
	}
}
