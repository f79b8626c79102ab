package workload

import (
	"runtime"
	"sync"
	"testing"
	"time"
	"unsafe"

	"oestm/internal/core"
	"oestm/internal/stm"
	"oestm/internal/tl2"
)

func quickScenarioConfig() ScenarioConfig {
	cfg := DefaultScenarioConfig().Scaled(16) // 16 keys, 4 accounts
	cfg.AuditPct = 20
	return cfg
}

func TestScenarioRegistry(t *testing.T) {
	names := ScenarioNames()
	if len(names) != 4 {
		t.Fatalf("scenarios = %v, want 4", names)
	}
	for _, name := range names {
		s, ok := NewScenario(name, quickScenarioConfig())
		if !ok || s == nil {
			t.Fatalf("NewScenario(%q) failed", name)
		}
		if s.Name() != name {
			t.Fatalf("scenario %q reports name %q", name, s.Name())
		}
		if s.Structures() == "" {
			t.Fatalf("scenario %q has no structures label", name)
		}
		if s.Violations() != 0 {
			t.Fatalf("fresh scenario %q already has violations", name)
		}
	}
	if _, ok := NewScenario("bogus", quickScenarioConfig()); ok {
		t.Fatal("NewScenario accepted unknown name")
	}
}

// TestScenarioSoundSingleThread runs every scenario single-threaded on
// OE-STM: with no concurrency there is nothing to break, so checkers and
// audits must stay silent.
func TestScenarioSoundSingleThread(t *testing.T) {
	for _, name := range ScenarioNames() {
		scn, _ := NewScenario(name, quickScenarioConfig())
		tm := core.New()
		th := stm.NewThread(tm)
		scn.Fill(th)
		w := scn.NewWorker(th, 0)
		for i := 0; i < 3000; i++ {
			w.Step()
		}
		scn.Check(th)
		if v := scn.Violations(); v != 0 {
			t.Fatalf("scenario %s: %d violations single-threaded", name, v)
		}
	}
}

// The checkers must actually fire: each test below seeds the exact
// intermediate state a non-atomic execution of the scenario's composed
// operation leaves behind, then verifies Check reports it.

func TestMoveCheckerDetectsLostKey(t *testing.T) {
	cfg := quickScenarioConfig()
	scn, _ := NewScenario("move", cfg)
	ms := scn.(*moveScenario)
	tm := core.New()
	th := stm.NewThread(tm)
	scn.Fill(th)
	// A torn move: the key has been removed from A but not yet added to
	// B — the state between the two halves of an unsound move.
	if !ms.a.Remove(th, 0) {
		t.Fatal("seed key 0 not in set A")
	}
	scn.Check(th)
	if scn.Violations() == 0 {
		t.Fatal("move checker missed a lost key")
	}
}

func TestMoveCheckerDetectsDuplicatedKey(t *testing.T) {
	cfg := quickScenarioConfig()
	scn, _ := NewScenario("move", cfg)
	ms := scn.(*moveScenario)
	tm := core.New()
	th := stm.NewThread(tm)
	scn.Fill(th)
	// A move that added before removing: the key is in both sets.
	if !ms.b.Add(th, 0) {
		t.Fatal("seed key 0 already in set B")
	}
	scn.Check(th)
	if scn.Violations() == 0 {
		t.Fatal("move checker missed a duplicated key")
	}
}

func TestInsertIfAbsentCheckerDetectsFullPair(t *testing.T) {
	cfg := quickScenarioConfig()
	scn, _ := NewScenario("insert-if-absent", cfg)
	is := scn.(*iiaScenario)
	tm := core.New()
	th := stm.NewThread(tm)
	scn.Fill(th)
	// Two unsound inserters raced: both members of a pair are present.
	is.s.Add(th, 2)
	is.s.Add(th, 3)
	scn.Check(th)
	if scn.Violations() == 0 {
		t.Fatal("insert-if-absent checker missed a fully present pair")
	}
}

func TestBankCheckerDetectsLostMoney(t *testing.T) {
	cfg := quickScenarioConfig()
	scn, _ := NewScenario("bank", cfg)
	bs := scn.(*bankScenario)
	tm := core.New()
	th := stm.NewThread(tm)
	scn.Fill(th)
	// A torn transfer: withdrawn but not yet deposited.
	bs.m.Put(th, 0, int64(cfg.InitialBalance-1))
	scn.Check(th)
	if scn.Violations() == 0 {
		t.Fatal("bank checker missed a wrong total balance")
	}
}

func TestPipelineCheckerDetectsUncountedItem(t *testing.T) {
	cfg := quickScenarioConfig()
	scn, _ := NewScenario("pipeline", cfg)
	ps := scn.(*pipelineScenario)
	tm := core.New()
	th := stm.NewThread(tm)
	scn.Fill(th)
	// An item in the queues that the produced counter never saw — the
	// inverse of the torn stage, and the simplest conservation breach.
	ps.q1.Enqueue(th, 1)
	scn.Check(th)
	if scn.Violations() == 0 {
		t.Fatal("pipeline checker missed an uncounted item")
	}
}

// runUnsound drives one scenario with Unsound compositions (each half a
// separate transaction) under real concurrency on a correct engine and
// returns the observed violation count.
func runUnsound(t *testing.T, name string, dur time.Duration) uint64 {
	t.Helper()
	// On a single P the scheduler switches workers almost exclusively at
	// retry-backoff yields — never between an unsound composition's two
	// transactions — so the tear window rarely overlaps anything and the
	// test flakes. Oversubscribed OS threads restore genuinely
	// interleaved executions (same rationale as the cross-shard checkers
	// in internal/store).
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(8))
	cfg := quickScenarioConfig()
	cfg.Unsound = true
	scn, _ := NewScenario(name, cfg)
	tm := tl2.New()
	scn.Fill(stm.NewThread(tm))

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(idx int) {
			defer wg.Done()
			th := stm.NewThread(tm)
			w := scn.NewWorker(th, idx)
			for {
				select {
				case <-stop:
					return
				default:
					w.Step()
				}
			}
		}(i)
	}
	time.Sleep(dur)
	close(stop)
	wg.Wait()
	scn.Check(stm.NewThread(tm))
	return scn.Violations()
}

// TestUnsoundExecutionsViolate is the end-to-end counterpart of the
// seeded checker tests: with compositions split into separate
// transactions, concurrent workers must trip every scenario's invariant.
// The races are real races, so each scenario retries with growing
// durations before failing.
func TestUnsoundExecutionsViolate(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-dependent concurrency test")
	}
	for _, name := range ScenarioNames() {
		found := false
		for attempt := 0; attempt < 5 && !found; attempt++ {
			found = runUnsound(t, name, time.Duration(50+100*attempt)*time.Millisecond) > 0
		}
		if !found {
			t.Errorf("scenario %s: unsound concurrent execution never violated its invariant", name)
		}
	}
}

// TestLayoutPipelineCounters pins the pipeline's two global sequence
// counters apart: producers write one and consumers the other on every
// step, so they must never share a cache line.
func TestLayoutPipelineCounters(t *testing.T) {
	var s pipelineScenario
	if d := unsafe.Offsetof(s.consumed) - (unsafe.Offsetof(s.produced) + unsafe.Sizeof(s.produced)); d < 64 {
		t.Errorf("produced and consumed are %d bytes apart, want ≥ 64", d)
	}
}
