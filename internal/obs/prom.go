package obs

import (
	"bytes"
	"fmt"
	"runtime"
	"strconv"
	"strings"

	"oestm/internal/stats"
	"oestm/internal/stm"
	"oestm/internal/wire"
)

// Prometheus text-format exposition of the stats payload. Series names
// and label sets are a stable API (the golden test pins them); every
// series maps to one source counter in the payload: the scalar and
// per-shard families are generated from wire.StatsTable and
// wire.ShardTable (name, HELP, TYPE, order), so a counter added there
// appears here with no edit — see the metric map in ARCHITECTURE.md's
// observability section.
//
// Latency histograms re-bucket the log-bucketed stats.Histogram onto
// power-of-two le boundaries, 2^8ns (256ns) through 2^30ns (~1.07s).
// The conversion is exact, not approximate: the source buckets subdivide
// octaves and never straddle a power of two, so the cumulative count at
// boundary 2^k is exactly the number of samples <= 2^k-1 ns (the
// boundary's nominal value overshoots that edge by a single nanosecond —
// below any latency resolution that matters). _sum and _count are exact
// too: the histogram carries an unbucketed sum.

// promExpLo/promExpHi are the exponents of the first and last finite le
// boundary (nanoseconds).
const (
	promExpLo = 8
	promExpHi = 30
)

// promLE is the precomputed le label value of each boundary, in seconds
// (powers of two have exact finite decimal forms, so the labels are
// exact).
var promLE = func() []string {
	out := make([]string, 0, promExpHi-promExpLo+1)
	for e := promExpLo; e <= promExpHi; e++ {
		out = append(out, strconv.FormatFloat(float64(uint64(1)<<e)/1e9, 'g', -1, 64))
	}
	return out
}()

// seconds renders a nanosecond total as an exact decimal seconds value.
func seconds(ns uint64) string {
	return fmt.Sprintf("%d.%09d", ns/1e9, ns%1e9)
}

// escapeLabel escapes a label value per the exposition format.
func escapeLabel(s string) string {
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(s)
}

// head writes one metric family's HELP/TYPE preamble.
func head(b *bytes.Buffer, name, typ, help string) {
	fmt.Fprintf(b, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
}

// WriteMetrics renders the full /metrics exposition into b: the
// payload-derived series, the flight recorder's counters (rec may be
// nil), and Go runtime/build gauges.
func WriteMetrics(b *bytes.Buffer, p *wire.StatsPayload, rec *FlightRecorder) {
	renderPayload(b, p)
	if rec != nil {
		recorded, dropped := rec.Counters()
		head(b, "compose_abort_events_recorded_total", "counter", "Abort events written to the flight recorder.")
		fmt.Fprintf(b, "compose_abort_events_recorded_total %d\n", recorded)
		head(b, "compose_abort_events_dropped_total", "counter", "Abort events overwritten before a /debug/aborts drain read them.")
		fmt.Fprintf(b, "compose_abort_events_dropped_total %d\n", dropped)
	}
	renderRuntime(b)
}

// renderPayload writes the payload-derived series — a deterministic
// function of p, which is what the golden test renders.
func renderPayload(b *bytes.Buffer, p *wire.StatsPayload) {
	head(b, "compose_server_info", "gauge", "Server identity; constant 1.")
	fmt.Fprintf(b, "compose_server_info{cm=%q,engine=%q} 1\n",
		escapeLabel(p.CM), escapeLabel(p.Engine))
	head(b, "compose_shards", "gauge", "Store shard count.")
	fmt.Fprintf(b, "compose_shards %d\n", p.Shards)
	head(b, "compose_connections", "gauge", "Currently open client connections.")
	fmt.Fprintf(b, "compose_connections %d\n", p.Conns)

	head(b, "compose_requests_total", "counter", "Requests served, by opcode.")
	for i := range p.Ops {
		fmt.Fprintf(b, "compose_requests_total{op=%q} %d\n", wire.Op(i).String(), p.Ops[i].Count)
	}

	head(b, "compose_request_duration_seconds", "histogram", "Server-side request service time, by opcode.")
	for i := range p.Ops {
		opHist(b, wire.Op(i).String(), &p.Ops[i].Hist)
	}

	// The scalar families, in wire.StatsTable order.
	engine := escapeLabel(p.Engine)
	for i := range wire.StatsTable {
		d := &wire.StatsTable[i]
		name, typ := family(d.Name, d.Kind)
		head(b, name, typ, d.Help)
		switch {
		case d.ByCause:
			for c := range p.AbortsByCause {
				fmt.Fprintf(b, "%s{cause=%q,engine=%q} %d\n", name, stm.ConflictCause(c).Slug(), engine, p.AbortsByCause[c])
			}
		case d.Kind == wire.StatFlag:
			on := 0
			if d.Label(p) == wire.FlagOn {
				on = 1
			}
			fmt.Fprintf(b, "%s %d\n", name, on)
		default:
			fmt.Fprintf(b, "%s %d\n", name, *d.Field(p))
		}
	}

	// The per-shard families, in wire.ShardTable order.
	if len(p.ShardStats) == 0 {
		return
	}
	for i := range wire.ShardTable {
		d := &wire.ShardTable[i]
		name, typ := family(d.Name, d.Kind)
		head(b, name, typ, d.Help)
		for shard := range p.ShardStats {
			fmt.Fprintf(b, "%s{shard=\"%d\"} %d\n", name, shard, *d.Field(&p.ShardStats[shard]))
		}
	}
}

// family derives a table row's metric family name and TYPE from its
// name and kind: compose_<name>_total counters, compose_<name> gauges,
// and compose_<name>_enabled 0/1 gauges for flags.
func family(name string, kind wire.StatKind) (string, string) {
	switch kind {
	case wire.StatCounter:
		return "compose_" + name + "_total", "counter"
	case wire.StatFlag:
		return "compose_" + name + "_enabled", "gauge"
	}
	return "compose_" + name, "gauge"
}

// opHist writes one opcode's bucket/sum/count triple. Each source
// bucket folds into the first boundary at or above its upper edge;
// samples past the last finite boundary appear only in +Inf.
func opHist(b *bytes.Buffer, op string, h *stats.Histogram) {
	var bins [promExpHi - promExpLo + 2]uint64 // +1: past the last boundary
	h.EachBucket(func(maxNS, n uint64) {
		for i := 0; i < len(bins)-1; i++ {
			if maxNS < uint64(1)<<(promExpLo+i) {
				bins[i] += n
				return
			}
		}
		bins[len(bins)-1] += n
	})
	var cum uint64
	for i, le := range promLE {
		cum += bins[i]
		fmt.Fprintf(b, "compose_request_duration_seconds_bucket{le=%q,op=%q} %d\n", le, op, cum)
	}
	fmt.Fprintf(b, "compose_request_duration_seconds_bucket{le=\"+Inf\",op=%q} %d\n", op, h.Count())
	fmt.Fprintf(b, "compose_request_duration_seconds_sum{op=%q} %s\n", op, seconds(h.SumNS()))
	fmt.Fprintf(b, "compose_request_duration_seconds_count{op=%q} %d\n", op, h.Count())
}

// renderRuntime writes Go runtime and build-info gauges (point-in-time,
// not payload-derived — kept out of the golden surface).
func renderRuntime(b *bytes.Buffer) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	head(b, "compose_build_info", "gauge", "Build identity; constant 1.")
	fmt.Fprintf(b, "compose_build_info{go_version=%q} 1\n", escapeLabel(runtime.Version()))
	head(b, "go_goroutines", "gauge", "Live goroutines.")
	fmt.Fprintf(b, "go_goroutines %d\n", runtime.NumGoroutine())
	head(b, "go_gomaxprocs", "gauge", "GOMAXPROCS.")
	fmt.Fprintf(b, "go_gomaxprocs %d\n", runtime.GOMAXPROCS(0))
	head(b, "go_memstats_heap_alloc_bytes", "gauge", "Bytes of allocated heap objects.")
	fmt.Fprintf(b, "go_memstats_heap_alloc_bytes %d\n", ms.HeapAlloc)
	head(b, "go_memstats_heap_objects", "gauge", "Allocated heap objects.")
	fmt.Fprintf(b, "go_memstats_heap_objects %d\n", ms.HeapObjects)
	head(b, "go_memstats_alloc_bytes_total", "counter", "Cumulative bytes allocated for heap objects.")
	fmt.Fprintf(b, "go_memstats_alloc_bytes_total %d\n", ms.TotalAlloc)
	head(b, "go_gc_cycles_total", "counter", "Completed GC cycles.")
	fmt.Fprintf(b, "go_gc_cycles_total %d\n", uint64(ms.NumGC))
	head(b, "go_gc_pause_seconds_total", "counter", "Cumulative GC stop-the-world pause time.")
	fmt.Fprintf(b, "go_gc_pause_seconds_total %s\n", seconds(ms.PauseTotalNs))
}
