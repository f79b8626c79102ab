package harness

import (
	"errors"
	"strings"
	"testing"
	"time"

	"oestm/internal/stm"
	"oestm/internal/stmtest"
	"oestm/internal/workload"
)

func quickScenarioConfig() workload.ScenarioConfig {
	cfg := workload.DefaultScenarioConfig().Scaled(16)
	cfg.AuditPct = 10
	return cfg
}

// TestScenariosRunOnAllEngines drives every scenario on every engine.
// The composing engines — OE-STM through outheritance, and the classic
// engines through flat nesting — must never violate an invariant. E-STM
// is the paper's designed counter-example (it releases a child's
// protected set at child commit, Fig. 1), so the run only has to
// complete; TestESTMViolatesComposedScenarios pins down that it does
// in fact violate.
func TestScenariosRunOnAllEngines(t *testing.T) {
	for _, eng := range AllEngines() {
		for _, name := range workload.ScenarioNames() {
			r := RunScenario(eng, ScenarioRunConfig{
				Scenario: name,
				Threads:  4,
				Duration: 40 * time.Millisecond,
				Warmup:   10 * time.Millisecond,
				Workload: quickScenarioConfig(),
			})
			if r.Ops == 0 || r.OpsPerMs <= 0 {
				t.Fatalf("%s/%s: no work measured: %+v", eng.Name, name, r)
			}
			if r.Engine != eng.Name || r.Scenario != name || r.Threads != 4 {
				t.Fatalf("%s/%s: metadata wrong: %+v", eng.Name, name, r)
			}
			if eng.Name != "estm" && r.Violations != 0 {
				t.Errorf("%s/%s: %d invariant violations on a composing engine",
					eng.Name, name, r.Violations)
			}
		}
	}
}

// TestESTMViolatesComposedScenarios demonstrates the paper's Fig. 1 at
// workload scale: without outheritance the bank transfers (Get/Put
// compositions) lose updates, which the total-balance audits observe.
// This doubles as evidence that the invariant checkers detect real
// atomicity violations, not just seeded ones.
func TestESTMViolatesComposedScenarios(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-dependent concurrency test")
	}
	eng, _ := EngineByName("estm")
	for attempt := 0; attempt < 5; attempt++ {
		r := RunScenario(eng, ScenarioRunConfig{
			Scenario: "bank",
			Threads:  4,
			Duration: time.Duration(50+100*attempt) * time.Millisecond,
			Warmup:   10 * time.Millisecond,
			Workload: quickScenarioConfig(),
		})
		if r.Violations > 0 {
			return
		}
	}
	t.Error("estm never violated the bank invariant; the ablation (or the checker) has gone soft")
}

// TestWedgedWorkersExitTyped wedges estm × insert-if-absent × 4 threads
// for the whole window: every worker is inside a transaction that can
// never commit when the window closes. The run must still end within 1 s
// of the window, every worker must have exited through a typed
// cancellation, and no wedged step may count as an operation.
func TestWedgedWorkersExitTyped(t *testing.T) {
	const threads, warmup, duration = 4, 10 * time.Millisecond, 40 * time.Millisecond
	eng, _ := EngineByName("estm")
	tm := &stmtest.WedgingTM{TM: eng.New()}
	scn, _ := workload.NewScenario("insert-if-absent", quickScenarioConfig())
	scn.Fill(stm.NewThread(tm))
	tm.Wedged.Store(true)

	ths := make([]*stm.Thread, threads)
	start := time.Now()
	m := runMeasured(threads, warmup, duration, func(idx int) (*stm.Thread, func()) {
		ths[idx] = newWorkerThread(tm, "")
		return ths[idx], scn.NewWorker(ths[idx], idx).Step
	}, nil)
	if over := time.Since(start) - warmup - duration; over > time.Second {
		t.Fatalf("wedged run ended %v after its window, want < 1s", over)
	}
	for i, th := range ths {
		var ce *stm.CancelledError
		if err := th.Err(); !errors.As(err, &ce) || !errors.Is(err, stm.ErrConflict) {
			t.Errorf("worker %d exited with %v, want a *stm.CancelledError", i, err)
		}
	}
	if m.Ops != 0 || m.Totals.Commits != 0 {
		t.Errorf("wedged workers measured %d ops and %d commits, want 0", m.Ops, m.Totals.Commits)
	}
}

// TestCancelledAuditsCountNoViolation wedges a bank scenario whose every
// step is an audit, with each attempt torn at its second read: SumInt's
// body gives up after the first account, holding a partial sum. When the
// window closes, each worker's audit is cancelled and returns that
// unvalidated sum, and none of them may count as a violation.
func TestCancelledAuditsCountNoViolation(t *testing.T) {
	const threads = 4
	eng, _ := EngineByName("oestm")
	tm := &stmtest.WedgingTM{TM: eng.New()}
	cfg := quickScenarioConfig()
	cfg.AuditPct = 100
	scn, _ := workload.NewScenario("bank", cfg)
	scn.Fill(stm.NewThread(tm))
	tm.Torn.Store(true)
	tm.Wedged.Store(true)

	ths := make([]*stm.Thread, threads)
	runMeasured(threads, 10*time.Millisecond, 40*time.Millisecond, func(idx int) (*stm.Thread, func()) {
		ths[idx] = newWorkerThread(tm, "")
		return ths[idx], scn.NewWorker(ths[idx], idx).Step
	}, nil)
	for i, th := range ths {
		if th.Err() == nil {
			t.Fatalf("worker %d's audit did not give up on a wedged engine", i)
		}
	}
	tm.Wedged.Store(false)
	scn.Check(stm.NewThread(tm))
	if v := scn.Violations(); v != 0 {
		t.Errorf("%d violations from audits that gave up, want 0", v)
	}
}

func TestRunScenarioUnknownPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("unknown scenario must panic")
		}
	}()
	eng, _ := EngineByName("oestm")
	RunScenario(eng, ScenarioRunConfig{Scenario: "bogus", Threads: 1, Duration: time.Millisecond})
}

func TestScenarioSweepAndFormat(t *testing.T) {
	eng, _ := EngineByName("tl2")
	results := ScenarioSweep(ScenarioSweepConfig{
		Scenario: "move",
		Threads:  []int{1, 2},
		Duration: 25 * time.Millisecond,
		Warmup:   5 * time.Millisecond,
		Runs:     2,
		Engines:  []Engine{eng},
		Workload: quickScenarioConfig(),
	})
	if len(results) != 2 {
		t.Fatalf("results = %d, want 2", len(results))
	}
	text := FormatScenario(results, "move")
	for _, want := range []string{"scenario move", "linkedlist+hashset", "threads", "tl2", "viol"} {
		if !strings.Contains(text, want) {
			t.Fatalf("formatted output missing %q:\n%s", want, text)
		}
	}
	csv := CSV(results)
	if !strings.HasPrefix(csv, CSVHeader+"\n") {
		t.Fatalf("csv header wrong:\n%s", csv)
	}
	if !strings.Contains(csv, "move,linkedlist+hashset,0,tl2,") {
		t.Fatalf("csv rows missing scenario columns:\n%s", csv)
	}
}
