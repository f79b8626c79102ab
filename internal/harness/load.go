// load.go is the closed-loop load generator of the serving layer: N
// connections, each a worker that issues one request at a time against a
// compose-server and times the round trip, drawing keys through the same
// distribution layer as the in-process workloads and recording latency
// into the same allocation-free histograms — so a networked measurement
// lands in the same Result/table/CSV pipeline as Figs. 6-8 and the
// scenario suite, directly comparable column for column.
//
// The measured window itself — workers, stats scrapes at its edges,
// progress lines, Result — is runWireWindow, shared with the
// counter-fanin checker.
package harness

import (
	"fmt"
	"io"
	"math/rand/v2"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"oestm/internal/server"
	"oestm/internal/stats"
	"oestm/internal/wire"
	"oestm/internal/workload"
)

// LoadMix is the request mix of the load generator, in percent of
// operations (must sum to 100).
type LoadMix struct {
	GetPct, PutPct, RemovePct int
	MGetPct, MPutPct, CamPct  int
	// AddPct/MAddPct weight the integer-delta operations: single-key adds
	// and cross-shard delta batches (the commutative hot-key path when the
	// server boosts them).
	AddPct, MAddPct int
}

// DefaultLoadMix is a read-heavy service mix with a steady composed
// fraction: 60% get, 20% put, 5% remove, 5% mget, 5% mput, 5% cam.
func DefaultLoadMix() LoadMix {
	return LoadMix{GetPct: 60, PutPct: 20, RemovePct: 5, MGetPct: 5, MPutPct: 5, CamPct: 5}
}

// Validate checks ranges and the sum.
func (m LoadMix) Validate() error {
	parts := []int{m.GetPct, m.PutPct, m.RemovePct, m.MGetPct, m.MPutPct, m.CamPct, m.AddPct, m.MAddPct}
	sum := 0
	for _, p := range parts {
		if p < 0 {
			return fmt.Errorf("harness: negative mix percentage %d", p)
		}
		sum += p
	}
	if sum != 100 {
		return fmt.Errorf("harness: load mix sums to %d, want 100", sum)
	}
	return nil
}

// String renders the mix in the form ParseLoadMix accepts.
func (m LoadMix) String() string {
	s := fmt.Sprintf("get:%d,put:%d,remove:%d,mget:%d,mput:%d,cam:%d",
		m.GetPct, m.PutPct, m.RemovePct, m.MGetPct, m.MPutPct, m.CamPct)
	if m.AddPct != 0 || m.MAddPct != 0 {
		s += fmt.Sprintf(",add:%d,madd:%d", m.AddPct, m.MAddPct)
	}
	return s
}

// ParseLoadMix parses "op:pct,..." (ops: get, put, remove, mget, mput,
// cam, add, madd; omitted ops are 0) and validates the result.
func ParseLoadMix(s string) (LoadMix, error) {
	var m LoadMix
	fields := map[string]*int{
		"get": &m.GetPct, "put": &m.PutPct, "remove": &m.RemovePct,
		"mget": &m.MGetPct, "mput": &m.MPutPct, "cam": &m.CamPct,
		"add": &m.AddPct, "madd": &m.MAddPct,
	}
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, pctStr, ok := strings.Cut(part, ":")
		if !ok {
			return m, fmt.Errorf("harness: load mix entry %q: want op:pct", part)
		}
		p, ok := fields[strings.TrimSpace(name)]
		if !ok {
			return m, fmt.Errorf("harness: unknown load mix op %q", name)
		}
		var pct int
		if _, err := fmt.Sscanf(strings.TrimSpace(pctStr), "%d", &pct); err != nil {
			return m, fmt.Errorf("harness: load mix entry %q: %v", part, err)
		}
		*p = pct
	}
	return m, m.Validate()
}

// LoadScenario is the Scenario label of networked load results.
const LoadScenario = "server"

// LoadConfig describes one closed-loop measurement against a running
// compose-server.
type LoadConfig struct {
	// Addr is the server address.
	Addr string
	// Conns is the number of connections (= concurrent closed loops).
	Conns int
	// Duration/Warmup frame the measured window, as everywhere else.
	Duration time.Duration
	Warmup   time.Duration
	// Keys is the key universe [0, Keys).
	Keys int
	// Span is the batch size of mget/mput requests.
	Span int
	// MaxVal bounds generated values: [0, MaxVal).
	MaxVal int64
	// Mix is the request mix (zero value = DefaultLoadMix).
	Mix LoadMix
	// Dist draws every single-op key and batch base key (see
	// internal/workload's distribution layer).
	Dist workload.DistConfig
	// Seed makes per-worker streams deterministic.
	Seed uint64
	// SkipFill leaves the keyspace as found instead of pre-filling every
	// key (fill happens before the warmup and is excluded from stats
	// deltas).
	SkipFill bool
	// Pipeline is the pipelining depth: each worker issues this many
	// requests per round trip (0 or 1 = classic one-at-a-time). Against
	// a batch-mode server a pipelined burst becomes one speculation
	// batch, so this is the knob that feeds the speculative executor
	// parallel work; against a conn-mode server it just amortizes
	// network round trips.
	Pipeline int
	// ReportEvery, when positive, prints a live progress line to
	// ReportTo at that period while the window runs: the window's ops/s,
	// p50/p99 round-trip latency (exact, from the server's merged
	// per-opcode histograms via Histogram.Sub) and abort rate — all
	// deltas between consecutive stats scrapes, so each line describes
	// only its own interval. Zero (the default) measures silently.
	ReportEvery time.Duration
	// ReportTo receives the progress lines (nil = os.Stderr, keeping
	// stdout's table and CSV output machine-clean).
	ReportTo io.Writer
}

// normalize applies defaults.
func (cfg LoadConfig) normalize() LoadConfig {
	if cfg.Conns == 0 {
		cfg.Conns = 4
	}
	if cfg.Keys == 0 {
		cfg.Keys = 1 << 13
	}
	if cfg.Span == 0 {
		cfg.Span = 8
	}
	if cfg.Span > cfg.Keys {
		cfg.Span = cfg.Keys
	}
	if cfg.Span > wire.MaxKeys {
		cfg.Span = wire.MaxKeys // the protocol's per-request key limit
	}
	if cfg.MaxVal == 0 {
		cfg.MaxVal = 1 << 20
	}
	if cfg.Mix == (LoadMix{}) {
		cfg.Mix = DefaultLoadMix()
	}
	if cfg.Seed == 0 {
		cfg.Seed = 0x10ad
	}
	if cfg.Pipeline == 0 {
		cfg.Pipeline = 1
	}
	return cfg
}

// RunLoad drives one measurement: dial, optionally fill, warm up, measure
// throughput and client-side latency over the window, and attribute the
// server's telemetry delta to it. The Result slots into the standard
// tables and CSV (Scenario "server"; Structure identifies the store and
// its shard count; Threads is the connection count; AllocsPerOp is the
// *client* process's allocation rate — near zero by construction, it
// pins the loader's own efficiency, not the server's).
func RunLoad(cfg LoadConfig) (Result, error) {
	cfg = cfg.normalize()
	if err := cfg.Mix.Validate(); err != nil {
		return Result{}, err
	}
	if err := cfg.Dist.Validate(); err != nil {
		return Result{}, err
	}
	// normalize only defaults zero values; explicit negatives (or a
	// negative duration) must fail loudly, not panic in a worker or
	// silently measure nothing.
	if cfg.Conns < 1 || cfg.Keys < 1 || cfg.Span < 1 || cfg.Duration < 0 || cfg.Warmup < 0 || cfg.MaxVal < 1 || cfg.Pipeline < 1 {
		return Result{}, fmt.Errorf("harness: invalid load shape: conns=%d keys=%d span=%d duration=%v warmup=%v maxval=%d pipeline=%d",
			cfg.Conns, cfg.Keys, cfg.Span, cfg.Duration, cfg.Warmup, cfg.MaxVal, cfg.Pipeline)
	}
	return runWireWindow(cfg, wireScenario{
		name: LoadScenario,
		setup: func(ctl *server.Client) error {
			if cfg.SkipFill {
				return nil
			}
			if err := fillStore(ctl, cfg); err != nil {
				return fmt.Errorf("harness: fill: %w", err)
			}
			return nil
		},
		newWorker: func(idx int) (func() (int, error), func(), error) {
			w, err := newLoadWorker(cfg, idx)
			if err != nil {
				return nil, nil, err
			}
			return w.step, func() { w.cl.Close() }, nil
		},
	})
}

// wireScenario is what one networked scenario adds to the shared
// measured window of runWireWindow.
type wireScenario struct {
	// name is the Result's Scenario label.
	name string
	// setup prepares the keyspace over the control connection, before
	// any worker starts (so it is excluded from the window's deltas).
	setup func(ctl *server.Client) error
	// newWorker dials worker idx's connection and returns its closed-loop
	// step — one round trip, reporting how many requests it completed —
	// and the connection's teardown.
	newWorker func(idx int) (step func() (int, error), close func(), err error)
	// check, when non-nil, runs quiesced after the workers exit and
	// returns the run's invariant-violation count.
	check func(ctl *server.Client) (uint64, error)
}

// runWireWindow is the measurement protocol of every networked scenario:
// one control connection for setup, stats scrapes and the end-state
// check; cfg.Conns workers looping sc.newWorker's step through the
// warmup and the measured window; the server's telemetry scraped at the
// window's edges and diffed (StatsPayload.Sub) into Result.Server, which
// also supplies the identity columns — engine, cm, shard count are the
// server's, not configured here. The server is assumed dedicated to this
// load while the window is open. A failing worker ends the run at once:
// the coordinator waits on the failure next to its timers.
func runWireWindow(cfg LoadConfig, sc wireScenario) (Result, error) {
	ctl, err := server.DialTimeout(cfg.Addr, 5*time.Second)
	if err != nil {
		return Result{}, fmt.Errorf("harness: dial %s: %w", cfg.Addr, err)
	}
	defer ctl.Close()
	if err := sc.setup(ctl); err != nil {
		return Result{}, err
	}

	var (
		stop      atomic.Bool
		measuring atomic.Bool
		wg        sync.WaitGroup
		mu        sync.Mutex
		m         = measurement{Hist: new(stats.Histogram)}
		firstErr  error
		failed    = make(chan struct{}) // closed by the first fail
	)
	fail := func(err error) {
		mu.Lock()
		defer mu.Unlock()
		if firstErr == nil {
			firstErr = err
			close(failed)
		}
		stop.Store(true)
	}
	for i := 0; i < cfg.Conns; i++ {
		wg.Add(1)
		go func(idx int) {
			defer wg.Done()
			step, closeConn, err := sc.newWorker(idx)
			if err != nil {
				fail(err)
				return
			}
			defer closeConn()
			hist := new(stats.Histogram)
			var ops uint64
			var prev time.Time
			counting := false
			for !stop.Load() {
				if !counting && measuring.Load() {
					counting = true
					prev = time.Now()
				}
				n, err := step()
				if err != nil {
					fail(fmt.Errorf("worker %d: %w", idx, err))
					return
				}
				// Count only inside the window: a worker that never saw
				// the measuring transition (one long stalled round trip)
				// must not fold its warmup ops into the measured total.
				if counting {
					ops += uint64(n)
					// One histogram sample per round trip: with
					// pipelining the sample is the burst's latency —
					// what a pipelined client actually waits.
					now := time.Now()
					hist.Record(now.Sub(prev))
					prev = now
				}
			}
			mu.Lock()
			m.Ops += ops
			m.Hist.Merge(hist)
			mu.Unlock()
		}(i)
	}

	select {
	case <-time.After(cfg.Warmup):
	case <-failed:
	}
	var s0, s1 wire.StatsPayload
	if err := ctl.Stats(&s0); err != nil {
		fail(fmt.Errorf("harness: stats at window open: %w", err))
	}
	m0 := mallocs()
	measuring.Store(true)
	start := time.Now()
	sleepWindow(ctl, cfg, &s0, start, failed)
	stop.Store(true)
	m.Elapsed = time.Since(start)
	m.Mallocs = mallocs() - m0
	wg.Wait()
	if err := ctl.Stats(&s1); err != nil {
		fail(fmt.Errorf("harness: stats at window close: %w", err))
	}
	if firstErr != nil {
		return Result{}, firstErr
	}
	var violations uint64
	if sc.check != nil {
		if violations, err = sc.check(ctl); err != nil {
			return Result{}, err
		}
	}

	s1.Sub(&s0)
	m.Totals = s1.STM()
	r := Result{
		Engine:     s1.Engine,
		Scenario:   sc.name,
		Structure:  fmt.Sprintf("store/%dshards", s1.Shards),
		CM:         s1.CM,
		Dist:       cfg.Dist.Label(),
		Theta:      cfg.Dist.ZipfTheta(),
		Threads:    cfg.Conns,
		Violations: violations,
		Server:     &s1,
	}
	m.into(&r)
	return r, nil
}

// sleepWindow sleeps out the measured window — or returns early when a
// worker fails — emitting one progress line per cfg.ReportEvery tick
// when that is set. Each line is windowed: its ops/s, latency
// percentiles and abort rate are the deltas between that tick's stats
// scrape and the previous one (StatsPayload.Sub), so a line describes
// only its own interval — drift, warm caches, or a building convoy show
// up as line-to-line movement, not as a diluted running average. Scrape
// failures skip the line; the measurement itself never depends on the
// reporter.
func sleepWindow(cl *server.Client, cfg LoadConfig, s0 *wire.StatsPayload, start time.Time, failed <-chan struct{}) {
	w := cfg.ReportTo
	if w == nil {
		w = io.Writer(os.Stderr)
	}
	var tick <-chan time.Time // nil (never ready) without ReportEvery
	if cfg.ReportEvery > 0 {
		ticker := time.NewTicker(cfg.ReportEvery)
		defer ticker.Stop()
		tick = ticker.C
	}
	last := *s0
	lastT := start
	timer := time.NewTimer(cfg.Duration)
	defer timer.Stop()
	for {
		select {
		case <-timer.C:
			return
		case <-failed:
			return
		case now := <-tick:
			var cur wire.StatsPayload
			if err := cl.Stats(&cur); err != nil {
				fmt.Fprintf(w, "compose-load: progress scrape failed: %v\n", err)
				continue
			}
			window := now.Sub(lastT)
			if window <= 0 {
				continue
			}
			d := cur
			d.Sub(&last)
			var ops uint64
			var h stats.Histogram
			for i := range d.Ops {
				ops += d.Ops[i].Count
				h.Merge(&d.Ops[i].Hist)
			}
			fmt.Fprintf(w, "compose-load: t=%-6s ops/s=%-9.0f p50=%.1fµs p99=%.1fµs abort%%=%.2f\n",
				now.Sub(start).Truncate(100*time.Millisecond),
				float64(ops)/window.Seconds(),
				usec(h.Quantile(0.50)), usec(h.Quantile(0.99)), d.STM().AbortRate())
			last, lastT = cur, now
		}
	}
}

// fillStore populates every key (value key % MaxVal) in Span-sized MPut
// batches through cl.
func fillStore(cl *server.Client, cfg LoadConfig) error {
	keys := make([]int64, 0, cfg.Span)
	vals := make([]int64, 0, cfg.Span)
	flush := func() error {
		if len(keys) == 0 {
			return nil
		}
		err := cl.MPut(keys, vals)
		keys, vals = keys[:0], vals[:0]
		return err
	}
	for k := 0; k < cfg.Keys; k++ {
		keys = append(keys, int64(k))
		vals = append(vals, int64(k)%cfg.MaxVal)
		if len(keys) == cfg.Span {
			if err := flush(); err != nil {
				return err
			}
		}
	}
	return flush()
}

// loadWorker is one connection's closed loop.
type loadWorker struct {
	cfg  LoadConfig
	cl   *server.Client
	rng  *rand.Rand
	keys workload.Sampler
	// thresholds are the cumulative mix buckets in order: get, put,
	// remove, mget, mput, add, madd (cam is the remainder).
	thresholds [7]int
	batchK     []int64
	batchV     []int64
	// reqs/resps are the burst buffers, len Pipeline.
	reqs  []wire.Request
	resps []wire.Response
}

func newLoadWorker(cfg LoadConfig, idx int) (*loadWorker, error) {
	cl, err := server.DialTimeout(cfg.Addr, 5*time.Second)
	if err != nil {
		return nil, err
	}
	m := cfg.Mix
	w := &loadWorker{
		cfg:    cfg,
		cl:     cl,
		rng:    rand.New(rand.NewPCG(cfg.Seed, uint64(idx)+1)),
		keys:   workload.NewSampler(cfg.Dist, cfg.Keys),
		batchK: make([]int64, cfg.Span),
		batchV: make([]int64, cfg.Span),
		reqs:   make([]wire.Request, cfg.Pipeline),
		resps:  make([]wire.Response, cfg.Pipeline),
	}
	w.thresholds[0] = m.GetPct
	w.thresholds[1] = w.thresholds[0] + m.PutPct
	w.thresholds[2] = w.thresholds[1] + m.RemovePct
	w.thresholds[3] = w.thresholds[2] + m.MGetPct
	w.thresholds[4] = w.thresholds[3] + m.MPutPct
	w.thresholds[5] = w.thresholds[4] + m.AddPct
	w.thresholds[6] = w.thresholds[5] + m.MAddPct
	return w, nil
}

// key draws one key through the distribution layer.
func (w *loadWorker) key() int64 { return int64(w.keys.Next(w.rng)) }

// val draws one value.
func (w *loadWorker) val() int64 { return w.rng.Int64N(w.cfg.MaxVal) }

// delta draws one signed add delta in [-100, 100]: counter-sized steps,
// so add-heavy runs exercise the hot path without values drifting to the
// magnitudes absolute writes use.
func (w *loadWorker) delta() int64 { return w.rng.Int64N(201) - 100 }

// batchDeltas fills the batch buffers with distribution-drawn keys and
// delta values (the MAdd shape of batch).
func (w *loadWorker) batchDeltas() {
	base := w.key()
	for i := range w.batchK {
		w.batchK[i] = (base + int64(i)) % int64(w.cfg.Keys)
		w.batchV[i] = w.delta()
	}
}

// batch fills the worker's batch buffers: a distribution-drawn base key
// and its Span successors (wrapping), so batches inherit the skew.
func (w *loadWorker) batch(withVals bool) {
	base := w.key()
	for i := range w.batchK {
		w.batchK[i] = (base + int64(i)) % int64(w.cfg.Keys)
		if withVals {
			w.batchV[i] = w.val()
		}
	}
}

// step draws Pipeline requests from the mix — the worker's one mix
// dispatcher — and issues them as one burst, one round trip; it returns
// how many requests completed.
func (w *loadWorker) step() (int, error) {
	for i := range w.reqs {
		q := &w.reqs[i]
		q.Keys, q.Vals = q.Keys[:0], q.Vals[:0]
		r := w.rng.IntN(100)
		switch {
		case r < w.thresholds[0]:
			q.Op, q.Key = wire.OpGet, w.key()
		case r < w.thresholds[1]:
			q.Op, q.Key, q.Val = wire.OpPut, w.key(), w.val()
		case r < w.thresholds[2]:
			q.Op, q.Key = wire.OpRemove, w.key()
		case r < w.thresholds[3]:
			w.batch(false)
			q.Op = wire.OpMGet
			q.Keys = append(q.Keys, w.batchK...)
		case r < w.thresholds[4]:
			w.batch(true)
			q.Op = wire.OpMPut
			q.Keys = append(q.Keys, w.batchK...)
			q.Vals = append(q.Vals, w.batchV...)
		case r < w.thresholds[5]:
			q.Op, q.Key, q.Val = wire.OpAdd, w.key(), w.delta()
		case r < w.thresholds[6]:
			w.batchDeltas()
			q.Op = wire.OpMAdd
			q.Keys = append(q.Keys, w.batchK...)
			q.Vals = append(q.Vals, w.batchV...)
		default:
			q.Op, q.Key, q.To, q.Val = wire.OpCompareAndMove, w.key(), w.key(), w.val()
		}
	}
	if err := w.cl.Pipeline(w.reqs, w.resps); ignoreExhausted(err) != nil {
		return 0, err
	}
	return len(w.reqs), nil
}

// ignoreExhausted tolerates ErrRetryExhausted on any request:
// bounded-retry servers may give up one operation under contention, and
// the closed loop just moves on, at any pipeline depth (Client.Pipeline
// drains the whole burst). Pipeline reports only the first failed slot,
// but the other failures a well-formed burst can meet (durability,
// shutting down) are sticky server states: one hidden behind an exhausted
// slot fails the next burst.
func ignoreExhausted(err error) error {
	if pe, ok := wire.IsProtocolError(err); ok && pe.Code == wire.ErrRetryExhausted {
		return nil
	}
	return err
}
