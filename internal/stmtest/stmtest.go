// Package stmtest provides an engine-independent conformance suite: every
// STM engine in this repository (OE-STM, E-STM, TL2, LSA, SwissTM) must
// pass it. The suite checks the transactional contract the collections and
// the benchmark harness rely on: atomicity, isolation, read-own-write,
// abort semantics, nesting/composition, and serializability witnesses such
// as write-skew prevention and invariant preservation under contention.
// WedgingTM is the suite's one fault-injecting engine wrapper.
package stmtest

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"oestm/internal/mvar"
	"oestm/internal/stm"
)

// Factory builds a fresh engine per test.
type Factory func() stm.TM

// Run executes the whole conformance suite against the factory.
func Run(t *testing.T, f Factory) {
	t.Helper()
	t.Run("ReadWriteCommit", func(t *testing.T) { testReadWriteCommit(t, f) })
	t.Run("ReadOwnWrite", func(t *testing.T) { testReadOwnWrite(t, f) })
	t.Run("AbortOnError", func(t *testing.T) { testAbortOnError(t, f) })
	t.Run("ExplicitConflictRetries", func(t *testing.T) { testExplicitConflictRetries(t, f) })
	t.Run("CounterIncrements", func(t *testing.T) { testCounterIncrements(t, f) })
	t.Run("AllOrNothingVisibility", func(t *testing.T) { testAllOrNothing(t, f) })
	t.Run("WriteSkewPrevented", func(t *testing.T) { testWriteSkew(t, f) })
	t.Run("TransferInvariant", func(t *testing.T) { testTransferInvariant(t, f) })
	t.Run("NestedCommit", func(t *testing.T) { testNestedCommit(t, f) })
	t.Run("NestedUserAbort", func(t *testing.T) { testNestedUserAbort(t, f) })
	t.Run("NestedDepth", func(t *testing.T) { testNestedDepth(t, f) })
	t.Run("StatsAccounting", func(t *testing.T) { testStatsAccounting(t, f) })
	t.Run("CauseAccounting", func(t *testing.T) { testCauseAccounting(t, f) })
	t.Run("ReadMissingIsNil", func(t *testing.T) { testReadMissing(t, f) })
	t.Run("BothKinds", func(t *testing.T) { testBothKinds(t, f) })
}

func testReadWriteCommit(t *testing.T, f Factory) {
	tm := f()
	th := stm.NewThread(tm)
	v := mvar.New(10)
	err := th.Atomic(stm.Regular, func(tx stm.Tx) error {
		if got := tx.Read(v); got != 10 {
			return fmt.Errorf("read %v, want 10", got)
		}
		tx.Write(v, 11)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var got any
	if err := th.Atomic(stm.Regular, func(tx stm.Tx) error {
		got = tx.Read(v)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if got != 11 {
		t.Fatalf("after commit read %v, want 11", got)
	}
}

func testReadOwnWrite(t *testing.T, f Factory) {
	tm := f()
	th := stm.NewThread(tm)
	v := mvar.New("old")
	err := th.Atomic(stm.Regular, func(tx stm.Tx) error {
		tx.Write(v, "new")
		if got := tx.Read(v); got != "new" {
			return fmt.Errorf("read-own-write saw %v", got)
		}
		tx.Write(v, "newer")
		if got := tx.Read(v); got != "newer" {
			return fmt.Errorf("second read-own-write saw %v", got)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func testAbortOnError(t *testing.T, f Factory) {
	tm := f()
	th := stm.NewThread(tm)
	v := mvar.New(1)
	sentinel := errors.New("user abort")
	err := th.Atomic(stm.Regular, func(tx stm.Tx) error {
		tx.Write(v, 999)
		return sentinel
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v, want sentinel", err)
	}
	if got := readOnce(t, th, v); got != 1 {
		t.Fatalf("aborted write leaked: %v", got)
	}
}

func testExplicitConflictRetries(t *testing.T, f Factory) {
	tm := f()
	th := stm.NewThread(tm)
	v := mvar.New(0)
	attempts := 0
	err := th.Atomic(stm.Regular, func(tx stm.Tx) error {
		attempts++
		tx.Write(v, attempts)
		if attempts < 3 {
			stm.Conflict("forced")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if attempts != 3 {
		t.Fatalf("attempts = %d, want 3", attempts)
	}
	if got := readOnce(t, th, v); got != 3 {
		t.Fatalf("value = %v, want 3", got)
	}
	if th.Stats.Aborts != 2 {
		t.Fatalf("aborts = %d, want 2", th.Stats.Aborts)
	}
}

func testCounterIncrements(t *testing.T, f Factory) {
	tm := f()
	v := mvar.New(0)
	const goroutines = 8
	const per = 200
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			th := stm.NewThread(tm)
			for i := 0; i < per; i++ {
				err := th.Atomic(stm.Regular, func(tx stm.Tx) error {
					n := tx.Read(v).(int)
					tx.Write(v, n+1)
					return nil
				})
				if err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	th := stm.NewThread(tm)
	if got := readOnce(t, th, v); got != goroutines*per {
		t.Fatalf("counter = %v, want %d", got, goroutines*per)
	}
}

// testAllOrNothing checks that multi-location commits become visible
// atomically: writers flip (a,b) together; readers must never observe
// a != b.
func testAllOrNothing(t *testing.T, f Factory) {
	tm := f()
	a, b := mvar.New(0), mvar.New(0)
	stop := make(chan struct{})
	var wg sync.WaitGroup

	wg.Add(1)
	go func() {
		defer wg.Done()
		th := stm.NewThread(tm)
		for i := 1; i <= 300; i++ {
			val := i
			_ = th.Atomic(stm.Regular, func(tx stm.Tx) error {
				tx.Write(a, val)
				tx.Write(b, val)
				return nil
			})
		}
		close(stop)
	}()

	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			th := stm.NewThread(tm)
			for {
				select {
				case <-stop:
					return
				default:
				}
				var x, y any
				err := th.Atomic(stm.Regular, func(tx stm.Tx) error {
					x = tx.Read(a)
					y = tx.Read(b)
					return nil
				})
				if err == nil && x != y {
					t.Errorf("torn commit observed: a=%v b=%v", x, y)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// testWriteSkew checks serializability beyond snapshot isolation: with
// x+y == 2 initially and two transactions each zeroing one variable only
// if the sum is 2, at most one may commit its write.
func testWriteSkew(t *testing.T, f Factory) {
	tm := f()
	for round := 0; round < 50; round++ {
		x, y := mvar.New(1), mvar.New(1)
		var wg sync.WaitGroup
		run := func(read, write *mvar.AnyVar) {
			defer wg.Done()
			th := stm.NewThread(tm)
			_ = th.Atomic(stm.Regular, func(tx stm.Tx) error {
				sum := tx.Read(x).(int) + tx.Read(y).(int)
				if sum == 2 {
					tx.Write(write, 0)
				}
				return nil
			})
		}
		wg.Add(2)
		go run(y, x)
		go run(x, y)
		wg.Wait()
		th := stm.NewThread(tm)
		gx, gy := readOnce(t, th, x), readOnce(t, th, y)
		if gx == 0 && gy == 0 {
			t.Fatalf("write skew: both x and y zeroed (round %d)", round)
		}
	}
}

// testTransferInvariant hammers transfers between accounts and checks the
// total is conserved, including when observed concurrently.
func testTransferInvariant(t *testing.T, f Factory) {
	tm := f()
	const nAccounts = 8
	const total = 1000 * nAccounts
	accounts := make([]*mvar.AnyVar, nAccounts)
	for i := range accounts {
		accounts[i] = mvar.New(1000)
	}
	var writers, checker sync.WaitGroup
	stop := make(chan struct{})

	for g := 0; g < 4; g++ {
		writers.Add(1)
		go func(seed int) {
			defer writers.Done()
			th := stm.NewThread(tm)
			for i := 0; i < 400; i++ {
				from := (seed + i) % nAccounts
				to := (seed + i*7 + 1) % nAccounts
				if from == to {
					continue
				}
				_ = th.Atomic(stm.Regular, func(tx stm.Tx) error {
					fb := tx.Read(accounts[from]).(int)
					tb := tx.Read(accounts[to]).(int)
					tx.Write(accounts[from], fb-1)
					tx.Write(accounts[to], tb+1)
					return nil
				})
			}
		}(g)
	}

	checker.Add(1)
	go func() {
		defer checker.Done()
		th := stm.NewThread(tm)
		for {
			select {
			case <-stop:
				return
			default:
			}
			sum := 0
			err := th.Atomic(stm.Regular, func(tx stm.Tx) error {
				sum = 0
				for _, a := range accounts {
					sum += tx.Read(a).(int)
				}
				return nil
			})
			if err == nil && sum != total {
				t.Errorf("invariant broken: sum=%d want %d", sum, total)
				return
			}
		}
	}()

	writers.Wait()
	close(stop)
	checker.Wait()

	th := stm.NewThread(tm)
	sum := 0
	if err := th.Atomic(stm.Regular, func(tx stm.Tx) error {
		sum = 0
		for _, a := range accounts {
			sum += tx.Read(a).(int)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if sum != total {
		t.Fatalf("final sum = %d, want %d", sum, total)
	}
}

func testNestedCommit(t *testing.T, f Factory) {
	tm := f()
	th := stm.NewThread(tm)
	a, b := mvar.New(0), mvar.New(0)
	err := th.Atomic(stm.Regular, func(tx stm.Tx) error {
		tx.Write(a, 1)
		inner := th.Atomic(stm.Regular, func(tx2 stm.Tx) error {
			if got := tx2.Read(a); got != 1 {
				return fmt.Errorf("child cannot see parent write: %v", got)
			}
			tx2.Write(b, 2)
			return nil
		})
		if inner != nil {
			return inner
		}
		if got := tx.Read(b); got != 2 {
			return fmt.Errorf("parent cannot see child write: %v", got)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := readOnce(t, th, a); got != 1 {
		t.Fatalf("a = %v, want 1", got)
	}
	if got := readOnce(t, th, b); got != 2 {
		t.Fatalf("b = %v, want 2", got)
	}
}

func testNestedUserAbort(t *testing.T, f Factory) {
	tm := f()
	th := stm.NewThread(tm)
	a, b := mvar.New(0), mvar.New(0)
	sentinel := errors.New("inner failure")
	err := th.Atomic(stm.Regular, func(tx stm.Tx) error {
		tx.Write(a, 1)
		return th.Atomic(stm.Regular, func(tx2 stm.Tx) error {
			tx2.Write(b, 2)
			return sentinel
		})
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v, want sentinel", err)
	}
	if got := readOnce(t, th, a); got != 0 {
		t.Fatalf("parent write leaked after nested abort: a=%v", got)
	}
	if got := readOnce(t, th, b); got != 0 {
		t.Fatalf("child write leaked after nested abort: b=%v", got)
	}
}

func testNestedDepth(t *testing.T, f Factory) {
	tm := f()
	th := stm.NewThread(tm)
	v := mvar.New(0)
	const depth = 5
	var descend func(d int) error
	descend = func(d int) error {
		return th.Atomic(stm.Regular, func(tx stm.Tx) error {
			if th.Depth() != d {
				return fmt.Errorf("depth = %d, want %d", th.Depth(), d)
			}
			tx.Write(v, tx.Read(v).(int)+1)
			if d < depth {
				return descend(d + 1)
			}
			return nil
		})
	}
	if err := descend(1); err != nil {
		t.Fatal(err)
	}
	if got := readOnce(t, th, v); got != depth {
		t.Fatalf("v = %v, want %d", got, depth)
	}
}

func testStatsAccounting(t *testing.T, f Factory) {
	tm := f()
	th := stm.NewThread(tm)
	v := mvar.New(0)
	for i := 0; i < 5; i++ {
		if err := th.Atomic(stm.Regular, func(tx stm.Tx) error {
			tx.Write(v, i)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	if th.Stats.Commits != 5 {
		t.Fatalf("commits = %d, want 5", th.Stats.Commits)
	}
	before := th.Stats.ReadOnly
	if err := th.Atomic(stm.Regular, func(tx stm.Tx) error {
		_ = tx.Read(v)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if th.Stats.ReadOnly != before+1 {
		t.Fatalf("read-only commits = %d, want %d", th.Stats.ReadOnly, before+1)
	}
}

// testCauseAccounting hammers a contended mix — short transfers over a
// few hot variables plus the occasional forced retry — on both kinds and
// checks the per-cause abort counters: every abort must be classified
// (the counters sum exactly to Stats.Aborts, per thread and in
// aggregate), explicit aborts must be counted under CauseExplicit, and
// cause accounting must survive merging via Stats.Add. Run under -race
// this also checks the counters are thread-local as documented.
func testCauseAccounting(t *testing.T, f Factory) {
	tm := f()
	const nVars = 4
	vars := make([]*mvar.AnyVar, nVars)
	for i := range vars {
		vars[i] = mvar.New(0)
	}
	kinds := []stm.Kind{stm.Regular, stm.Elastic}

	const goroutines = 8
	const per = 300
	perThread := make([]stm.Stats, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			th := stm.NewThread(tm)
			for i := 0; i < per; i++ {
				a, b := vars[(g+i)%nVars], vars[(g+i*3+1)%nVars]
				forced := i%97 == 0
				err := th.Atomic(kinds[i%2], func(tx stm.Tx) error {
					n := tx.Read(a).(int)
					tx.Write(a, n+1)
					tx.Write(b, tx.Read(b).(int)-1)
					if forced {
						forced = false
						stm.Conflict("stmtest: forced")
					}
					return nil
				})
				if err != nil {
					t.Error(err)
					return
				}
			}
			perThread[g] = th.Stats
		}(g)
	}
	wg.Wait()

	var agg stm.Stats
	for g, s := range perThread {
		var sum uint64
		for _, n := range s.AbortsByCause {
			sum += n
		}
		if sum != s.Aborts {
			t.Errorf("goroutine %d: per-cause counters sum to %d, want Aborts=%d (%+v)",
				g, sum, s.Aborts, s.AbortsByCause)
		}
		agg.Add(s)
	}
	var aggSum uint64
	for _, n := range agg.AbortsByCause {
		aggSum += n
	}
	if aggSum != agg.Aborts {
		t.Errorf("aggregate per-cause counters sum to %d, want Aborts=%d", aggSum, agg.Aborts)
	}
	// Every goroutine forces ceil(per/97) explicit conflicts; nothing
	// else in this mix uses Conflict, so the explicit counter is exact.
	wantExplicit := uint64(goroutines * ((per + 96) / 97))
	if got := agg.AbortsByCause[stm.CauseExplicit]; got != wantExplicit {
		t.Errorf("explicit aborts = %d, want %d", got, wantExplicit)
	}
	if agg.Aborts < wantExplicit {
		t.Errorf("total aborts %d below the forced minimum %d", agg.Aborts, wantExplicit)
	}
}

func testReadMissing(t *testing.T, f Factory) {
	tm := f()
	th := stm.NewThread(tm)
	var v mvar.AnyVar // zero Var holds nil
	err := th.Atomic(stm.Regular, func(tx stm.Tx) error {
		if got := tx.Read(&v); got != nil {
			return fmt.Errorf("zero Var read %v, want nil", got)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// testBothKinds runs the same update under both kinds; engines without
// elastic support must still execute Elastic requests correctly (as
// Regular).
func testBothKinds(t *testing.T, f Factory) {
	tm := f()
	th := stm.NewThread(tm)
	v := mvar.New(0)
	for _, k := range []stm.Kind{stm.Regular, stm.Elastic} {
		if err := th.Atomic(k, func(tx stm.Tx) error {
			tx.Write(v, tx.Read(v).(int)+1)
			return nil
		}); err != nil {
			t.Fatalf("kind %v: %v", k, err)
		}
	}
	if got := readOnce(t, th, v); got != 2 {
		t.Fatalf("v = %v, want 2", got)
	}
}

// readOnce reads a single Var in its own transaction.
func readOnce(t *testing.T, th *stm.Thread, v *mvar.AnyVar) any {
	t.Helper()
	var got any
	if err := th.Atomic(stm.Regular, func(tx stm.Tx) error {
		got = tx.Read(v)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return got
}
