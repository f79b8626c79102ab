package harness

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"oestm/internal/cm"
	"oestm/internal/core"
	"oestm/internal/eec"
	"oestm/internal/lsa"
	"oestm/internal/seqset"
	"oestm/internal/stats"
	"oestm/internal/stm"
	"oestm/internal/swisstm"
	"oestm/internal/tl2"
	"oestm/internal/wire"
	"oestm/internal/workload"
)

// Engine couples a display name with an engine factory. A fresh engine is
// created per run so clocks and contention state never leak across runs.
type Engine struct {
	Name string
	New  func() stm.TM
}

// Engines returns the paper's engine line-up: OE-STM and the three
// classic baselines. The "estm" ablation engine is available through
// AllEngines.
func Engines() []Engine {
	return []Engine{
		{Name: "oestm", New: func() stm.TM { return core.New() }},
		{Name: "lsa", New: func() stm.TM { return lsa.New() }},
		{Name: "tl2", New: func() stm.TM { return tl2.New() }},
		{Name: "swisstm", New: func() stm.TM { return swisstm.New() }},
	}
}

// AllEngines returns Engines plus the non-outheriting E-STM ablation.
func AllEngines() []Engine {
	return append(Engines(), Engine{Name: "estm", New: func() stm.TM { return core.NewWithoutOutheritance() }})
}

// EngineByName resolves one engine factory; ok is false for unknown
// names.
func EngineByName(name string) (Engine, bool) {
	for _, e := range AllEngines() {
		if e.Name == name {
			return e, true
		}
	}
	return Engine{}, false
}

// Structures returns the three benchmark structures of §VII. The hash set
// is sized for the paper's load factor of 512.
func Structures() []string { return []string{"linkedlist", "skiplist", "hashset"} }

// NewStructure builds a fresh transactional structure by name.
func NewStructure(name string, cfg workload.Config) eec.Set {
	switch name {
	case "linkedlist":
		return eec.NewLinkedListSet()
	case "skiplist":
		return eec.NewSkipListSet()
	case "hashset":
		return eec.NewHashSetForLoad(cfg.InitialSize)
	default:
		panic(fmt.Sprintf("harness: unknown structure %q", name))
	}
}

// NewSeqStructure builds the bare sequential counterpart.
func NewSeqStructure(name string, cfg workload.Config) seqset.Set {
	switch name {
	case "linkedlist":
		return seqset.NewLinkedListSet()
	case "skiplist":
		return seqset.NewSkipListSet()
	case "hashset":
		return seqset.NewHashSet(cfg.InitialSize / eec.DefaultLoadFactor)
	default:
		panic(fmt.Sprintf("harness: unknown structure %q", name))
	}
}

// RunConfig describes one measurement.
type RunConfig struct {
	Structure string
	Threads   int
	Duration  time.Duration
	Warmup    time.Duration
	Workload  workload.Config
	// CM names the contention-management policy installed on every
	// worker thread (see internal/cm); empty means cm.DefaultName.
	CM string
}

// CMNames resolves the policy names of a sweep request: nil or empty
// means just the default policy. Unknown names panic (CLI front-ends
// validate against cm.Names first).
func CMNames(names []string) []string {
	if len(names) == 0 {
		return []string{cm.DefaultName}
	}
	for _, n := range names {
		if _, ok := cm.New(n); !ok {
			panic(fmt.Sprintf("harness: unknown contention-management policy %q", n))
		}
	}
	return names
}

// newWorkerThread builds a worker's transactional context with the
// requested contention-management policy installed (fresh instance per
// thread: policies keep per-thread state).
func newWorkerThread(tm stm.TM, cmName string) *stm.Thread {
	th := stm.NewThread(tm)
	if cmName == "" {
		cmName = cm.DefaultName
	}
	th.CM = cm.MustNew(cmName)
	return th
}

// MixScenario is the Scenario label of the classic single-structure
// contains/add/remove mix of Figs. 6-8.
const MixScenario = "mix"

// Result is one measured point: the coordinates of Figs. 6-8 (or of one
// composed scenario), plus the process-wide heap allocation rate over the
// measured window (the -benchmem axis of the testing benches) and the
// invariant-violation count of scenario runs (always 0 for the mix, and
// for every transactional engine).
type Result struct {
	Engine    string
	Scenario  string
	Structure string
	BulkPct   int
	CM        string // contention-management policy ("-" for sequential)
	// Dist is the key-distribution label (workload.DistConfig.Label:
	// "uniform", "zipfian:0.99", "hotspot:90/10", ...).
	Dist string
	// Theta is the Zipfian skew for zipfian points, 0 otherwise.
	Theta       float64
	Threads     int
	OpsPerMs    float64
	AbortRate   float64
	AllocsPerOp float64
	// Per-operation latency over the measured window, from the merged
	// per-worker log-bucketed histograms (see stats.Histogram for the
	// resolution bound; LatMax is exact).
	LatP50, LatP95, LatP99, LatMax time.Duration
	Violations                     uint64
	Ops                            uint64
	Commits                        uint64
	Aborts                         uint64
	// AbortsByCause breaks Aborts down by stm.ConflictCause (indexed by
	// cause value, summed across workers and runs of the point).
	AbortsByCause [stm.NumCauses]uint64
	Elapsed       time.Duration
	// Hist is the merged latency histogram behind the LatP* fields;
	// average() merges it across runs before recomputing percentiles.
	// May be nil for hand-built Results.
	Hist *stats.Histogram
	// Server is the server's telemetry over the measured window for
	// networked results: every counter of wire.StatsPayload as a delta
	// between the scrapes at the window's edges (StatsPayload.Sub), with
	// identity and gauges as of its close. The CSV's trailing columns
	// (wal and hot-key counters; wire.StatsTable says
	// which) read it; nil for in-process runs, whose cells render "-"/0.
	Server *wire.StatsPayload
}

// setLatency installs a measured histogram and its headline percentiles.
func (r *Result) setLatency(h *stats.Histogram) {
	if h == nil || h.Count() == 0 {
		return
	}
	r.Hist = h
	r.LatP50 = h.Quantile(0.50)
	r.LatP95 = h.Quantile(0.95)
	r.LatP99 = h.Quantile(0.99)
	r.LatMax = h.Max()
}

// mallocs samples the cumulative process-wide allocation count.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// measurement is the raw outcome of one windowed multi-worker run.
type measurement struct {
	Ops     uint64
	Totals  stm.Stats
	Elapsed time.Duration
	Mallocs uint64
	Hist    *stats.Histogram // merged per-worker latency histograms
}

// into writes the measured axes of r — throughput in the paper's unit
// (ops/ms), abort rate, allocs/op, the raw counts and the latency
// percentiles — leaving r's coordinates to the caller.
func (m measurement) into(r *Result) {
	r.OpsPerMs = float64(m.Ops) / float64(m.Elapsed.Milliseconds()+1)
	r.AbortRate = m.Totals.AbortRate()
	if m.Ops > 0 {
		r.AllocsPerOp = float64(m.Mallocs) / float64(m.Ops)
	}
	r.Ops = m.Ops
	r.Commits = m.Totals.Commits
	r.Aborts = m.Totals.Aborts
	r.AbortsByCause = m.Totals.AbortsByCause
	r.Elapsed = m.Elapsed
	r.setLatency(m.Hist)
}

// runMeasured is the measurement protocol shared by the mix and scenario
// runners: spin up `threads` workers — newWorker(idx) builds each one's
// thread and step function — let them run through the warmup, then count
// operations, commit/abort deltas, per-operation latency and process-wide
// allocations over the measured window. onMeasure, if non-nil, runs on
// the coordinating goroutine at the instant the window opens (for
// snapshotting counters that the workers accumulate from the start, e.g.
// scenario violations).
//
// Latency is recorded into a per-worker stats.Histogram allocated before
// the warmup, with one clock read per operation (each operation's end
// timestamps the next one's start), so the measured window itself stays
// allocation-free and the allocs/op axis is unaffected.
//
// When the window closes every worker thread is cancelled (stm.Thread.
// Cancel), so a step stuck retrying one transaction forever gives up at
// its next abort instead of holding up the run. A worker stops at the
// first step that gave up (th.Err() != nil), and that step is not counted.
func runMeasured(threads int, warmup, duration time.Duration, newWorker func(idx int) (*stm.Thread, func()), onMeasure func()) measurement {
	var (
		stop      atomic.Bool
		measuring atomic.Bool
		wg        sync.WaitGroup
		mu        sync.Mutex
		workers   []*stm.Thread
		totalOps  uint64
		totals    stm.Stats
		totalHist = new(stats.Histogram)
	)
	for i := 0; i < threads; i++ {
		wg.Add(1)
		go func(idx int) {
			defer wg.Done()
			th, step := newWorker(idx)
			mu.Lock()
			workers = append(workers, th)
			mu.Unlock()
			hist := new(stats.Histogram) // heap traffic before the window opens
			var ops uint64
			var base stm.Stats
			var prev time.Time
			baseTaken := false
			for !stop.Load() {
				if !baseTaken && measuring.Load() {
					base = th.Stats
					ops = 0
					baseTaken = true
					prev = time.Now()
				}
				step()
				if th.Err() != nil {
					break
				}
				ops++
				if baseTaken {
					now := time.Now()
					hist.Record(now.Sub(prev))
					prev = now
				}
			}
			if !baseTaken {
				base = stm.Stats{}
			}
			delta := th.Stats.Diff(base)
			mu.Lock()
			totalOps += ops
			totals.Add(delta)
			totalHist.Merge(hist)
			mu.Unlock()
		}(i)
	}

	time.Sleep(warmup)
	if onMeasure != nil {
		onMeasure()
	}
	m0 := mallocs()
	measuring.Store(true)
	start := time.Now()
	time.Sleep(duration)
	stop.Store(true)
	elapsed := time.Since(start)
	m1 := mallocs()
	mu.Lock()
	for _, th := range workers {
		th.Cancel()
	}
	mu.Unlock()
	wg.Wait()

	return measurement{Ops: totalOps, Totals: totals, Elapsed: elapsed, Mallocs: m1 - m0, Hist: totalHist}
}

// RunSTM measures one engine on one configuration: fill the structure,
// spin up cfg.Threads workers each drawing its own operation stream, run
// for warmup+duration, and count operations completed during the
// measured window.
func RunSTM(eng Engine, cfg RunConfig) Result {
	tm := eng.New()
	set := NewStructure(cfg.Structure, cfg.Workload)
	filler := stm.NewThread(tm)
	workload.Fill(filler, set, cfg.Workload)

	m := runMeasured(cfg.Threads, cfg.Warmup, cfg.Duration, func(idx int) (*stm.Thread, func()) {
		th := newWorkerThread(tm, cfg.CM)
		gen := workload.NewGen(cfg.Workload, idx)
		return th, func() { workload.Apply(th, set, gen.Next()) }
	}, nil)

	cmName := cfg.CM
	if cmName == "" {
		cmName = cm.DefaultName
	}
	r := Result{
		Engine:    eng.Name,
		Scenario:  MixScenario,
		Structure: cfg.Structure,
		BulkPct:   cfg.Workload.BulkPct,
		CM:        cmName,
		Dist:      cfg.Workload.Dist.Label(),
		Theta:     cfg.Workload.Dist.ZipfTheta(),
		Threads:   cfg.Threads,
	}
	m.into(&r)
	return r
}

// RunSequential measures the bare sequential baseline: one goroutine on
// the uninstrumented structure, whatever cfg.Threads says (the paper
// plots it as a flat reference line).
func RunSequential(cfg RunConfig) Result {
	set := NewSeqStructure(cfg.Structure, cfg.Workload)
	workload.FillSeq(set, cfg.Workload)
	gen := workload.NewGen(cfg.Workload, 0)

	// The same measurement protocol as the engines, with one worker whose
	// thread runs no transactions (its counters stay zero).
	m := runMeasured(1, cfg.Warmup, cfg.Duration, func(int) (*stm.Thread, func()) {
		return new(stm.Thread), func() { workload.ApplySeq(set, gen.Next()) }
	}, nil)
	r := Result{
		Engine:    "sequential",
		Scenario:  MixScenario,
		Structure: cfg.Structure,
		BulkPct:   cfg.Workload.BulkPct,
		CM:        "-", // no transactions, no contention management
		Dist:      cfg.Workload.Dist.Label(),
		Theta:     cfg.Workload.Dist.ZipfTheta(),
		Threads:   1,
	}
	m.into(&r)
	return r
}
