package harness

import (
	"fmt"
	"strings"
	"time"

	"oestm/internal/cm"
	"oestm/internal/stm"
	"oestm/internal/workload"
)

// ScenarioRunConfig describes one composed-scenario measurement.
type ScenarioRunConfig struct {
	Scenario string
	Threads  int
	Duration time.Duration
	Warmup   time.Duration
	Workload workload.ScenarioConfig
	// CM names the contention-management policy installed on every
	// worker thread (see internal/cm); empty means cm.DefaultName.
	CM string
}

// RunScenario measures one engine on one composed scenario: build and
// fill a fresh scenario instance, spin up cfg.Threads workers each
// stepping its own operation stream (mutations interleaved with invariant
// audits), run for warmup+duration, then quiesce and run the end-state
// invariant check. The returned Result carries the scenario's invariant
// violation count — 0 on every transactional engine — beside the usual
// throughput/abort/allocs axes. Like those, the count is windowed:
// audit failures during warmup are excluded, the end-state check is
// included. It panics on an unknown scenario name (use
// workload.ScenarioNames for the registry).
func RunScenario(eng Engine, cfg ScenarioRunConfig) Result {
	if !workload.ScenarioKeyed(cfg.Scenario) {
		// Key-free scenarios ignore the distribution; tag the result
		// uniform so no row claims a skew that had no effect.
		cfg.Workload.Dist = workload.DistConfig{}
	}
	tm := eng.New()
	scn, ok := workload.NewScenario(cfg.Scenario, cfg.Workload)
	if !ok {
		panic(fmt.Sprintf("harness: unknown scenario %q", cfg.Scenario))
	}
	filler := stm.NewThread(tm)
	scn.Fill(filler)

	var warmupViolations uint64
	m := runMeasured(cfg.Threads, cfg.Warmup, cfg.Duration, func(idx int) (*stm.Thread, func()) {
		th := newWorkerThread(tm, cfg.CM)
		worker := scn.NewWorker(th, idx)
		return th, worker.Step
	}, func() { warmupViolations = scn.Violations() })

	checker := stm.NewThread(tm)
	scn.Check(checker)

	cmName := cfg.CM
	if cmName == "" {
		cmName = cm.DefaultName
	}
	r := Result{
		Engine:     eng.Name,
		Scenario:   scn.Name(),
		Structure:  scn.Structures(),
		CM:         cmName,
		Dist:       cfg.Workload.Dist.Label(),
		Theta:      cfg.Workload.Dist.ZipfTheta(),
		Threads:    cfg.Threads,
		Violations: scn.Violations() - warmupViolations,
	}
	m.into(&r)
	return r
}

// ScenarioSweepConfig describes a whole scenario panel: one scenario, a
// thread sweep, the engines to compare, and the contention-policy and
// key-distribution axes to sweep them under.
type ScenarioSweepConfig struct {
	Scenario string
	Threads  []int
	Duration time.Duration
	Warmup   time.Duration
	Runs     int // per point; results are averaged, violations summed
	Engines  []Engine
	CMs      []string // contention policies (internal/cm names); nil = default
	Workload workload.ScenarioConfig
	// Dists sweeps key distributions: each entry replaces Workload.Dist
	// for its own set of points. Nil means just Workload.Dist.
	Dists []workload.DistConfig
}

// ScenarioSweep measures every (distribution, cm, engine, threads) point
// of the panel.
func ScenarioSweep(cfg ScenarioSweepConfig) []Result {
	if cfg.Runs < 1 {
		cfg.Runs = 1
	}
	dists := distConfigs(cfg.Dists, cfg.Workload.Dist)
	if !workload.ScenarioKeyed(cfg.Scenario) {
		// Key-free scenario: every distribution yields the same workload,
		// so measure once (RunScenario tags it uniform).
		dists = dists[:1]
	}
	var out []Result
	for _, dist := range dists {
		wl := cfg.Workload
		wl.Dist = dist
		for _, cmName := range CMNames(cfg.CMs) {
			for _, eng := range cfg.Engines {
				for _, n := range cfg.Threads {
					rs := make([]Result, cfg.Runs)
					for i := range rs {
						rs[i] = RunScenario(eng, ScenarioRunConfig{
							Scenario: cfg.Scenario,
							Threads:  n,
							Duration: cfg.Duration,
							Warmup:   cfg.Warmup,
							Workload: wl,
							CM:       cmName,
						})
					}
					out = append(out, average(rs))
				}
			}
		}
	}
	return out
}

// FormatScenario renders a scenario panel as an aligned table: one row
// per thread count; throughput, abort-rate, allocs/op, latency (p50/p99
// µs) and invariant-violation columns per engine (per engine/policy pair
// when sweeping contention managers, per distribution when sweeping
// those), followed by the per-cause abort breakdown.
func FormatScenario(results []Result, scenario string) string {
	engines, threads, point := pivot(results)
	structures := ""
	if len(results) > 0 {
		structures = results[len(results)-1].Structure
	}

	var b strings.Builder
	fmt.Fprintf(&b, "scenario %s on %s (throughput ops/ms | abort %% | allocs/op | p50/p99 µs | invariant violations)\n",
		scenario, structures)
	w := labelWidth(engines)
	fmt.Fprintf(&b, "%-8s", "threads")
	for _, e := range engines {
		fmt.Fprintf(&b, " %*s %7s %7s %7s %7s %5s", w, e, "ab%", "allocs", "p50us", "p99us", "viol")
	}
	b.WriteByte('\n')
	for _, n := range threads {
		fmt.Fprintf(&b, "%-8d", n)
		for _, e := range engines {
			r, ok := point[e][n]
			if !ok {
				fmt.Fprintf(&b, " %*s %7s %7s %7s %7s %5s", w, "-", "-", "-", "-", "-", "-")
				continue
			}
			fmt.Fprintf(&b, " %*.1f %7.2f %7.2f %7.1f %7.1f %5d",
				w, r.OpsPerMs, r.AbortRate, r.AllocsPerOp, usec(r.LatP50), usec(r.LatP99), r.Violations)
		}
		b.WriteByte('\n')
	}
	b.WriteString(FormatCauses(results))
	b.WriteString(FormatHotKeys(results))
	return b.String()
}
