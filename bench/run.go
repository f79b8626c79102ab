package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"text/tabwriter"
	"time"

	"oestm/internal/wire"
)

// env is where and how a run executes.
type env struct {
	outDir    string // logs, traces, results, temporary WAL directories
	serverBin string // the compose-server binary the serving workloads spawn
	report    io.Writer
	ladder    ladderSize
}

// A run sets its stack up several times — at least minSetUps, and more
// while that is cheap, because a short set-up is a noisy one: set-up time
// is the median, and the last stack is the one measured.
const (
	minSetUps   = 5
	maxSetUps   = 25
	setUpBudget = 1500 * time.Millisecond
)

// medianSetUp calls one, which sets a stack up (replacing the previous
// one) and returns how long that took, and returns the median time in
// seconds.
func medianSetUp(one func() (time.Duration, error)) (float64, error) {
	var (
		times []float64
		total time.Duration
	)
	for len(times) < minSetUps || (total < setUpBudget && len(times) < maxSetUps) {
		d, err := one()
		if err != nil {
			return 0, err
		}
		times = append(times, d.Seconds())
		total += d
	}
	return median(times), nil
}

// result is one run's findings.
type result struct {
	outcome
	metrics metrics
	samples int // latency samples behind the percentiles
}

// run executes one workload once: the untraced run measures the
// end-to-end metrics over a window of seconds; the traced run spends the
// same budget on a short served pair (untraced, then traced), the
// in-process replay and the ladder, and reports the per-layer metrics.
func (e *env) run(w *workload, seed uint64, seconds int, traced bool) (*result, error) {
	switch {
	case w.lib && traced:
		return e.traceLib(w, seed, seconds)
	case w.lib:
		return e.runLib(seed, seconds)
	case traced:
		return e.traceServing(w, seed, seconds)
	}
	return e.runServing(w, seed, seconds)
}

// perWorker builds one pre-generated stream per worker.
func perWorker[T any](gen func(worker, n int) []T) [][]T {
	streams := make([][]T, workers)
	for i := range streams {
		streams[i] = gen(i, streamLen)
	}
	return streams
}

func genStreams(w *workload, seed uint64) [][]reqDesc {
	return perWorker(func(i, n int) []reqDesc { return genStream(w, seed, i, n) })
}

func genLibStreams(seed uint64) [][]libOp {
	return perWorker(func(i, n int) []libOp { return genLibStream(seed, i, n) })
}

func (s *serving) loadWorkers(streams [][]reqDesc) ([]*loadWorker, []loop) {
	lws := make([]*loadWorker, len(s.conns))
	loops := make([]loop, len(s.conns))
	for i, c := range s.conns {
		lws[i] = newLoadWorker(s.w, c, streams[i])
		loops[i] = lws[i]
	}
	return lws, loops
}

func (e *env) runServing(w *workload, seed uint64, seconds int) (*result, error) {
	streams := genStreams(w, seed)
	var s *serving
	defer func() {
		if s != nil {
			s.tearDown() // failure paths; a no-op after finish
		}
	}()
	setup, err := medianSetUp(func() (d time.Duration, err error) {
		if s != nil {
			if err := s.tearDown(); err != nil {
				return 0, err
			}
		}
		s, d, err = setUp(e, w)
		return d, err
	})
	if err != nil {
		return nil, err
	}

	overhead, err := s.scrapeAllocates()
	if err != nil {
		return nil, err
	}
	lws, loops := s.loadWorkers(streams)
	win, err := measure(loops, w.pipeline, s.scrape, s.srv.cpuSeconds, warmup, seconds, false)
	if err != nil {
		return nil, err
	}
	res := &result{metrics: metrics{}, samples: win.samples}
	res.metrics.set(endToEndUnits, "setup_s", setup)
	win.endToEnd(res.metrics, overhead)
	if err := s.finish(lws, res); err != nil {
		return nil, err
	}
	return res, nil
}

// finish audits the final state, drains the server and tallies the run's
// requests and checks into res.
func (s *serving) finish(lws []*loadWorker, res *result) error {
	o, err := s.verify(lws)
	if err != nil {
		return err
	}
	res.add(o)
	for _, lw := range lws {
		res.add(lw.outcome)
	}
	return s.tearDown()
}

func (e *env) runLib(seed uint64, seconds int) (*result, error) {
	streams := genLibStreams(seed)
	var s *libStack
	setup, err := medianSetUp(func() (d time.Duration, _ error) {
		s, d = setUpLib(streams)
		return d, nil
	})
	if err != nil {
		return nil, err
	}
	win, err := measure(s.loops(), 1, scrapeSelf, selfCPU, warmup, seconds, false)
	if err != nil {
		return nil, err
	}
	res := &result{metrics: metrics{}, samples: win.samples}
	res.metrics.set(endToEndUnits, "setup_s", setup)
	win.endToEnd(res.metrics, 0)
	s.finish(res)
	return res, nil
}

// finish audits the final set and tallies the run's operations and checks
// into res.
func (s *libStack) finish(res *result) {
	res.add(s.verify())
	for _, lw := range s.workers {
		res.add(lw.outcome)
	}
}

// tracedSplit divides a traced run's budget: a third for each served
// window, the rest for the replay and the ladder.
func tracedSplit(seconds int) int { return max(seconds/3, 1) }

// servedLayers sets the per-layer metrics that come from a served pair of
// windows rather than from the ladder.
func servedLayers(m metrics, plain, traced *window) {
	set := func(name string, v float64) { m.set(perLayerUnits, name, v) }
	a, b := &traced.before.st, &traced.after.st
	ops := float64(traced.ops)
	d := func(x, y uint64) float64 { return float64(y - x) }
	set("trace.overhead_ratio", plain.opsPerSecond()/traced.opsPerSecond()-1)
	set("core.abort_ratio", ratio(d(a.Aborts, b.Aborts), d(a.Aborts, b.Aborts)+d(a.Commits, b.Commits)))
	set("store.boosted_share", ratio(d(a.BoostedOps, b.BoostedOps), d(a.Adds, b.Adds)))
	set("wal.syncs_per_append", ratio(d(a.WALSyncs, b.WALSyncs), d(a.WALAppends, b.WALAppends)))
	set("wal.bytes_per_op", d(a.WALBytes, b.WALBytes)/ops)
	set("server.wait_us_per_op", float64(traced.wait)/1e3/ops)
	set("server.rt_p99_us", traced.latencyUS(0.99))
}

func (e *env) traceServing(w *workload, seed uint64, seconds int) (*result, error) {
	streams := genStreams(w, seed)
	s, _, err := setUp(e, w)
	if err != nil {
		return nil, err
	}
	defer func() { s.tearDown() }() // failure paths; a no-op after finish
	lws, loops := s.loadWorkers(streams)
	part := tracedSplit(seconds)
	plain, err := measure(loops, w.pipeline, s.scrape, s.srv.cpuSeconds, warmup, part, false)
	if err != nil {
		return nil, err
	}
	traced, err := measure(loops, w.pipeline, s.scrape, s.srv.cpuSeconds, 1, part, true)
	if err != nil {
		return nil, err
	}
	if err := writeTrace(filepath.Join(e.outDir, "trace-"+w.name+".jsonl"), traced.tracers); err != nil {
		return nil, err
	}
	res := &result{metrics: metrics{}, samples: traced.samples}
	if err := s.finish(lws, res); err != nil {
		return nil, err
	}

	walDir := ""
	if w.wal {
		if walDir, err = os.MkdirTemp(e.outDir, "wal-"); err != nil {
			return nil, err
		}
	}
	costs, err := replay(walDir, w, streams[0], replayLen)
	if err != nil {
		return nil, err
	}
	if err := ladder(e, e.ladder, res.metrics); err != nil {
		return nil, err
	}
	servedLayers(res.metrics, plain, traced)
	e.decompose(w, traced, costs, res.metrics)
	return res, nil
}

// replayLen is how many requests of the stream the in-process replay
// pushes through the unrolled request path.
const replayLen = 1 << 17

// decompose prints, per opcode, what the replay charged to each layer
// beside the service time the server's own histogram reports, and for the
// workload as a whole the layers' mix-weighted sum beside the measured
// wait per request; what the layers do not explain is the residue,
// server.self_us_per_op.
func (e *env) decompose(w *workload, traced *window, costs [wire.NumOps]opCost, m metrics) {
	fmt.Fprintf(e.report, "\ndecomposition of %s (us per request; replay of %d requests on one goroutine)\n", w.name, replayLen)
	tw := tabwriter.NewWriter(e.report, 0, 8, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "op\tshare\twire.decode_req\tstore.exec\twire.encode_resp\tsum\tserver histogram\tresidue\t")
	var total, n float64
	for op, c := range costs {
		if c.n == 0 {
			continue
		}
		us := func(d time.Duration) float64 { return d.Seconds() * 1e6 / float64(c.n) }
		a, b := &traced.before.st.Ops[op], &traced.after.st.Ops[op]
		served := ratio(float64(b.Hist.SumNS()-a.Hist.SumNS())/1e3, float64(b.Count-a.Count))
		fmt.Fprintf(tw, "%s\t%.1f%%\t%.3f\t%.3f\t%.3f\t%.3f\t%.3f\t%.3f\t\n", wire.Op(op),
			100*float64(c.n)/replayLen, us(c.decode), us(c.exec), us(c.encode), c.sum(), served, served-c.sum())
		total += c.sum() * float64(c.n)
		n += float64(c.n)
	}
	tw.Flush()
	layers := total / n
	wait := m["server.wait_us_per_op"].Value
	m.set(perLayerUnits, "server.self_us_per_op", wait-layers)
	fmt.Fprintf(e.report, "all ops: layers %.3f us + residue %.3f us (socket, server loop, scheduling, telemetry) = server.wait %.3f us per request at pipeline %d\n",
		layers, wait-layers, wait, w.pipeline)
}

func (e *env) traceLib(w *workload, seed uint64, seconds int) (*result, error) {
	s, _ := setUpLib(genLibStreams(seed))
	part := tracedSplit(seconds)
	plain, err := measure(s.loops(), 1, scrapeSelf, selfCPU, warmup, part, false)
	if err != nil {
		return nil, err
	}
	traced, err := measure(s.loops(), 1, scrapeSelf, selfCPU, 1, part, true)
	if err != nil {
		return nil, err
	}
	if err := writeTrace(filepath.Join(e.outDir, "trace-"+w.name+".jsonl"), traced.tracers); err != nil {
		return nil, err
	}
	res := &result{metrics: metrics{}, samples: traced.samples}
	s.finish(res)
	if err := ladder(e, e.ladder, res.metrics); err != nil {
		return nil, err
	}
	// No server, store or log is on this workload's path.
	servedLayers(res.metrics, plain, traced)
	res.metrics.set(perLayerUnits, "server.self_us_per_op", 0)
	res.metrics.set(perLayerUnits, "core.abort_ratio", s.abortRatio())
	return res, nil
}
