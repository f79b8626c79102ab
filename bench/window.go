package main

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"oestm/internal/wire"
)

// sample is one timed unit of a worker — a burst round trip, or one
// library operation: when it ended (nanoseconds since the run began), how
// long it took, and — for bursts of traced runs only — how that time
// splits into encoding, waiting on the server and decoding.
type sample struct {
	end            int64
	dur            int32
	enc, wait, dec int32
}

func clampNS(d time.Duration) int32 {
	if d > math.MaxInt32 {
		return math.MaxInt32
	}
	return int32(d)
}

// recorder is the part of a worker measure owns: its samples, and its
// span buffer while a traced window runs.
type recorder struct {
	samples []sample
	tr      *tracer
}

func (r *recorder) rec() *recorder { return r }

// loop is one closed-loop worker.
type loop interface {
	// run works until stop is set; an error ends it early.
	run(epoch time.Time, stop *atomic.Bool) error
	rec() *recorder
}

// counters is one cumulative reading of what a window charges to the
// system under test.
type counters struct {
	cpu   float64           // CPU seconds
	alloc uint64            // bytes allocated
	st    wire.StatsPayload // server telemetry; zero for the library workload
}

// slice is one equal part of a window.
type slice struct {
	seconds float64
	ops     int     // operations completed in it
	durs    []int32 // its samples' durations, sorted
	cpu     float64 // CPU seconds the system under test used in it
}

// window is what one measured interval saw.
type window struct {
	ops     int     // operations completed in the window
	samples int     // samples behind them
	slices  []slice // the window's equal parts, in time order

	enc, wait, dec int64 // traced serving windows: totals over the bursts

	before, after counters
	tracers       []*tracer
}

// slicesPerSecond divides a window into slices.
const slicesPerSecond = 2

// measure runs the loops for warm seconds unmeasured and then seconds
// measured. The window opens and closes at the counter readings, and CPU
// time is read again at every slice boundary; a sample belongs to the
// slice it ended in. Each sample stands for opsPerSample operations.
func measure(loops []loop, opsPerSample int, scrape func(closing bool) (counters, error), cpu func() (float64, error), warm, seconds int, traced bool) (*window, error) {
	win := &window{slices: make([]slice, seconds*slicesPerSecond)}
	for i, l := range loops {
		r := l.rec()
		if r.samples == nil {
			// Room for a few times the sample rate the benchmark was
			// sized at; a faster system appends past it.
			r.samples = make([]sample, 0, (warm+seconds)*100_000)
		}
		r.samples, r.tr = r.samples[:0], nil
		if traced {
			r.tr = newTracer(i)
			win.tracers = append(win.tracers, r.tr)
		}
	}
	var stop atomic.Bool
	var wg sync.WaitGroup
	errs := make([]error, len(loops))
	epoch := time.Now()
	for i, l := range loops {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = l.run(epoch, &stop)
		}()
	}
	finish := func() {
		stop.Store(true)
		wg.Wait()
	}
	time.Sleep(time.Duration(warm) * time.Second)
	var err error
	if win.before, err = scrape(false); err != nil {
		finish()
		return nil, err
	}
	// Slice i ends at bounds[i+1]; the boundaries are where the CPU
	// readings happened to be taken, so a late wake-up moves a boundary
	// instead of charging one slice's CPU time to the next.
	bounds := make([]int64, len(win.slices)+1)
	bounds[0] = int64(time.Since(epoch))
	last := win.before.cpu
	for i := range win.slices {
		time.Sleep(time.Duration(bounds[0]) + time.Duration(i+1)*time.Second/slicesPerSecond - time.Since(epoch))
		var now float64
		if now, err = cpu(); err != nil {
			finish()
			return nil, err
		}
		bounds[i+1] = int64(time.Since(epoch))
		win.slices[i].cpu, last = now-last, now
	}
	win.after, err = scrape(true)
	finish()
	if err = errors.Join(append(errs, err)...); err != nil {
		return nil, err
	}

	for _, l := range loops {
		i := 0 // a worker's samples are in time order
		for _, sm := range l.rec().samples {
			if sm.end < bounds[0] {
				continue
			}
			for i < len(win.slices) && sm.end >= bounds[i+1] {
				i++
			}
			if i == len(win.slices) {
				break
			}
			sl := &win.slices[i]
			sl.ops += opsPerSample
			sl.durs = append(sl.durs, sm.dur)
			win.ops += opsPerSample
			win.samples++
			win.enc += int64(sm.enc)
			win.wait += int64(sm.wait)
			win.dec += int64(sm.dec)
		}
	}
	for i := range win.slices {
		sl := &win.slices[i]
		if sl.ops == 0 {
			return nil, fmt.Errorf("no operation completed in slice %d of the window", i)
		}
		slices.Sort(sl.durs)
		sl.seconds = time.Duration(bounds[i+1] - bounds[i]).Seconds()
	}
	return win, nil
}

// percentileUS is the exact nearest-rank percentile of sorted durations,
// in microseconds.
func percentileUS(durs []int32, p float64) float64 {
	i := int(math.Ceil(p*float64(len(durs)))) - 1
	return float64(durs[max(i, 0)]) / 1e3
}

// undisturbed summarises the slices' values of f by the value one slice
// in ten betters. The machines this runs on share their host: for seconds
// at a time a neighbour slows every slice it touches, and never speeds
// one up, so a quantile near the good end repeats better from run to run
// than the median (and better than the single best slice, which one lucky
// half second can set).
func (win *window) undisturbed(higherIsBetter bool, f func(*slice) float64) float64 {
	vals := make([]float64, len(win.slices))
	for i := range win.slices {
		vals[i] = f(&win.slices[i])
	}
	slices.Sort(vals)
	if i := len(vals) / 10; higherIsBetter {
		return vals[len(vals)-1-i]
	} else {
		return vals[i]
	}
}

// opsPerSecond is the undisturbed completion rate.
func (win *window) opsPerSecond() float64 {
	return win.undisturbed(true, func(sl *slice) float64 { return float64(sl.ops) / sl.seconds })
}

// latencyUS is the undisturbed p'th percentile of a slice's samples, each
// slice's percentile being exact (nearest rank).
func (win *window) latencyUS(p float64) float64 {
	return win.undisturbed(false, func(sl *slice) float64 { return percentileUS(sl.durs, p) })
}

// endToEnd fills the metrics every workload reports from an untraced
// window (set-up time is the caller's). allocOverhead is what reading the
// allocation counter itself allocated inside the window.
func (win *window) endToEnd(m metrics, allocOverhead uint64) {
	m.set(endToEndUnits, "ops_per_s", win.opsPerSecond())
	m.set(endToEndUnits, "lat_p50_us", win.latencyUS(0.50))
	m.set(endToEndUnits, "cpu_us_per_op", win.undisturbed(false, func(sl *slice) float64 { return sl.cpu * 1e6 / float64(sl.ops) }))
	m.set(endToEndUnits, "alloc_bytes_per_op", float64(win.after.alloc-win.before.alloc-allocOverhead)/float64(win.ops))
}

func median(xs []float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// outcome is a run's tally of operations attempted and checks made, and
// how many of them failed.
type outcome struct {
	attempted, failed int
	firstFail         string
}

func (o *outcome) fail(msg string) {
	if o.failed++; o.firstFail == "" {
		o.firstFail = msg
	}
}

func (o *outcome) add(p outcome) {
	o.attempted += p.attempted
	o.failed += p.failed
	if o.firstFail == "" {
		o.firstFail = p.firstFail
	}
}
