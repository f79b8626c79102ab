package harness

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"

	"oestm/internal/stats"
	"oestm/internal/stm"
	"oestm/internal/wire"
	"oestm/internal/workload"
)

// SweepConfig describes a whole figure: one structure, one bulk
// percentage, a list of thread counts, the engines to compare, the
// contention-management policies to sweep them under, and the key
// distributions to drive them with.
type SweepConfig struct {
	Structure  string
	BulkPct    int
	Threads    []int
	Duration   time.Duration
	Warmup     time.Duration
	Runs       int // per point; results are averaged
	Engines    []Engine
	CMs        []string // contention policies (internal/cm names); nil = default
	Sequential bool     // include the bare sequential baseline
	Workload   workload.Config
	// Dists sweeps key distributions: each entry replaces Workload.Dist
	// for its own set of points (sequential baseline included, once per
	// distribution). Nil means just Workload.Dist as configured.
	Dists []workload.DistConfig
}

// distConfigs resolves a sweep's distribution axis: nil or empty means
// just the base config. Invalid entries panic (CLI front-ends validate
// with workload.DistConfig.Validate first).
func distConfigs(sweep []workload.DistConfig, base workload.DistConfig) []workload.DistConfig {
	if len(sweep) == 0 {
		return []workload.DistConfig{base}
	}
	for _, d := range sweep {
		if err := d.Validate(); err != nil {
			panic(err.Error())
		}
	}
	return sweep
}

// DefaultThreads is the paper's thread sweep.
var DefaultThreads = []int{1, 2, 4, 8, 16, 32, 64}

// Sweep measures every (distribution, cm, engine, threads) point of the
// figure and returns the averaged results, each distribution's sequential
// baseline first.
func Sweep(cfg SweepConfig) []Result {
	if cfg.Runs < 1 {
		cfg.Runs = 1
	}
	var out []Result
	for _, dist := range distConfigs(cfg.Dists, cfg.Workload.Dist) {
		wl := cfg.Workload
		wl.Dist = dist
		if cfg.Sequential {
			rs := make([]Result, cfg.Runs)
			for i := range rs {
				rs[i] = RunSequential(RunConfig{
					Structure: cfg.Structure,
					Threads:   1,
					Duration:  cfg.Duration,
					Warmup:    cfg.Warmup,
					Workload:  wl,
				})
			}
			out = append(out, average(rs))
		}
		for _, cmName := range CMNames(cfg.CMs) {
			for _, eng := range cfg.Engines {
				for _, n := range cfg.Threads {
					rs := make([]Result, cfg.Runs)
					for i := range rs {
						rs[i] = RunSTM(eng, RunConfig{
							Structure: cfg.Structure,
							Threads:   n,
							Duration:  cfg.Duration,
							Warmup:    cfg.Warmup,
							Workload:  wl,
							CM:        cmName,
						})
					}
					out = append(out, average(rs))
				}
			}
		}
	}
	return out
}

// average folds repeated runs of one point into one result. Latency is
// not averaged: the runs' histograms are merged (merge is associative, so
// this equals one long run) and the percentiles recomputed from the
// merged distribution.
func average(rs []Result) Result {
	if len(rs) == 1 {
		return rs[0]
	}
	out := rs[0]
	if out.Server != nil {
		sum := *out.Server // own copy: rs[0] keeps its window
		out.Server = &sum
	}
	tp := make([]float64, len(rs))
	ab := make([]float64, len(rs))
	al := make([]float64, len(rs))
	merged := new(stats.Histogram)
	for i, r := range rs {
		tp[i] = r.OpsPerMs
		ab[i] = r.AbortRate
		al[i] = r.AllocsPerOp
		if r.Hist != nil {
			merged.Merge(r.Hist)
		}
		if i > 0 {
			out.Ops += r.Ops
			out.Commits += r.Commits
			out.Aborts += r.Aborts
			for c := range out.AbortsByCause {
				out.AbortsByCause[c] += r.AbortsByCause[c]
			}
			// Violations are summed, not averaged: any non-zero count
			// means the invariant broke, and averaging could round a
			// single violation out of sight.
			out.Violations += r.Violations
			if out.Server != nil && r.Server != nil {
				out.Server.Add(r.Server)
			}
		}
	}
	out.OpsPerMs = stats.Mean(tp)
	out.AbortRate = stats.Mean(ab)
	out.AllocsPerOp = stats.Mean(al)
	out.setLatency(merged)
	return out
}

// FigureTitle names the paper figure for a structure, as in §VII-B.
func FigureTitle(structure string) string {
	switch structure {
	case "linkedlist":
		return "Fig. 6: LinkedListSet"
	case "skiplist":
		return "Fig. 7: SkipListSet"
	case "hashset":
		return "Fig. 8: HashSet"
	default:
		return structure
	}
}

// columnLabel names a result's table column: the engine, qualified with
// the contention policy ("engine/cm") when the result set sweeps more
// than one policy, and with the key distribution ("engine@dist") when it
// sweeps more than one distribution — the per-cell dist axis.
func columnLabel(r Result, multiCM, multiDist bool) string {
	l := r.Engine
	if multiCM && r.Engine != "sequential" {
		l += "/" + r.CM
	}
	if multiDist {
		l += "@" + r.Dist
	}
	return l
}

// labelWidth sizes the engine column of a table: wide enough for the
// longest label (engine/policy pairs can exceed the 12-char default,
// e.g. "swisstm/aggressive") so the ab%/allocs columns stay aligned.
func labelWidth(labels []string) int {
	w := 12
	for _, l := range labels {
		if len(l) > w {
			w = len(l)
		}
	}
	return w
}

// sweepsCMs reports whether results span more than one contention policy
// (the sequential baseline's "-" placeholder does not count).
func sweepsCMs(results []Result) bool {
	cms := map[string]bool{}
	for _, r := range results {
		if r.Engine != "sequential" {
			cms[r.CM] = true
		}
	}
	return len(cms) > 1
}

// sweepsDists reports whether results span more than one key
// distribution.
func sweepsDists(results []Result) bool {
	dists := map[string]bool{}
	for _, r := range results {
		dists[r.Dist] = true
	}
	return len(dists) > 1
}

// pivot arranges a result set for the tables: the distinct column labels
// in first-seen order, the sorted thread counts (the sequential
// baseline's single thread is not a row of its own), and the results by
// label and thread count.
func pivot(results []Result) (labels []string, threads []int, point map[string]map[int]Result) {
	multiCM := sweepsCMs(results)
	multiDist := sweepsDists(results)
	point = map[string]map[int]Result{}
	threadSet := map[int]bool{}
	for _, r := range results {
		l := columnLabel(r, multiCM, multiDist)
		if point[l] == nil {
			point[l] = map[int]Result{}
			labels = append(labels, l)
		}
		point[l][r.Threads] = r
		if r.Engine != "sequential" && !threadSet[r.Threads] {
			threadSet[r.Threads] = true
			threads = append(threads, r.Threads)
		}
	}
	sort.Ints(threads)
	return labels, threads, point
}

// usec renders a duration as microseconds for tables and CSV.
func usec(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// Format renders a figure's results as an aligned table: one row per
// thread count; throughput, abort-rate, allocs/op and latency (p50/p99
// µs) columns per engine (per engine/policy pair when sweeping contention
// managers, per distribution when sweeping those) — the text rendition of
// the paper's plots — followed by the per-cause abort breakdown.
func Format(results []Result, structure string, bulkPct int) string {
	labels, threads, point := pivot(results)

	var b strings.Builder
	fmt.Fprintf(&b, "%s — %d%% addAll/removeAll (throughput ops/ms | abort %% | allocs/op | p50/p99 µs)\n",
		FigureTitle(structure), bulkPct)
	w := labelWidth(labels)
	fmt.Fprintf(&b, "%-8s", "threads")
	for _, l := range labels {
		if strings.HasPrefix(l, "sequential") {
			fmt.Fprintf(&b, " %*s %7s", w, l, "p99us")
			continue
		}
		fmt.Fprintf(&b, " %*s %7s %7s %7s %7s", w, l, "ab%", "allocs", "p50us", "p99us")
	}
	b.WriteByte('\n')
	for _, n := range threads {
		fmt.Fprintf(&b, "%-8d", n)
		for _, l := range labels {
			if strings.HasPrefix(l, "sequential") {
				r := point[l][1]
				fmt.Fprintf(&b, " %*.1f %7.1f", w, r.OpsPerMs, usec(r.LatP99))
				continue
			}
			r, ok := point[l][n]
			if !ok {
				fmt.Fprintf(&b, " %*s %7s %7s %7s %7s", w, "-", "-", "-", "-", "-")
				continue
			}
			fmt.Fprintf(&b, " %*.1f %7.2f %7.2f %7.1f %7.1f",
				w, r.OpsPerMs, r.AbortRate, r.AllocsPerOp, usec(r.LatP50), usec(r.LatP99))
		}
		b.WriteByte('\n')
	}
	b.WriteString(FormatCauses(results))
	return b.String()
}

// displayCauses is the cause order of breakdown tables and CSV columns:
// the classified causes first, the unknown bucket last.
func displayCauses() []stm.ConflictCause {
	out := make([]stm.ConflictCause, 0, stm.NumCauses)
	for c := 1; c < stm.NumCauses; c++ {
		out = append(out, stm.ConflictCause(c))
	}
	return append(out, stm.CauseUnknown)
}

// FormatCauses renders the per-cause abort breakdown of a result set: one
// row per engine (or engine/policy pair), each cause's aborts summed over
// the thread sweep and runs. Rows and the whole block are omitted when
// nothing aborted.
func FormatCauses(results []Result) string {
	multiCM := sweepsCMs(results)
	multiDist := sweepsDists(results)
	var labels []string
	totals := map[string]*[stm.NumCauses]uint64{}
	for _, r := range results {
		if r.Engine == "sequential" {
			continue
		}
		l := columnLabel(r, multiCM, multiDist)
		t, ok := totals[l]
		if !ok {
			t = new([stm.NumCauses]uint64)
			totals[l] = t
			labels = append(labels, l)
		}
		for c := range r.AbortsByCause {
			t[c] += r.AbortsByCause[c]
		}
	}
	any := false
	for _, t := range totals {
		for _, n := range t {
			if n > 0 {
				any = true
			}
		}
	}
	if !any {
		return ""
	}
	var b strings.Builder
	b.WriteString("aborts by cause (summed over sweep)\n")
	fmt.Fprintf(&b, "%-24s", "")
	for _, c := range displayCauses() {
		fmt.Fprintf(&b, " %18s", c)
	}
	b.WriteByte('\n')
	for _, l := range labels {
		fmt.Fprintf(&b, "%-24s", l)
		for _, c := range displayCauses() {
			fmt.Fprintf(&b, " %18d", totals[l][c])
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// FormatHotKeys renders the commutative hot-key path's counters: one
// row per engine (or engine/policy pair), deltas summed over the sweep.
// Omitted entirely when no delta operations ran (non-add mixes,
// in-process runs).
func FormatHotKeys(results []Result) string {
	multiCM := sweepsCMs(results)
	multiDist := sweepsDists(results)
	var labels []string
	totals := map[string]*wire.StatsPayload{}
	for _, r := range results {
		if r.Server == nil {
			continue
		}
		l := columnLabel(r, multiCM, multiDist)
		t, ok := totals[l]
		if !ok {
			t = new(wire.StatsPayload)
			totals[l] = t
			labels = append(labels, l)
		}
		t.Add(r.Server)
	}
	any := false
	for _, t := range totals {
		if t.Adds > 0 {
			any = true
		}
	}
	if !any {
		return ""
	}
	var b strings.Builder
	b.WriteString("hot-key path (summed over sweep)\n")
	fmt.Fprintf(&b, "%-24s %18s %18s %18s %18s\n", "", "adds", "boosted_ops", "promotions", "demotions")
	for _, l := range labels {
		t := totals[l]
		fmt.Fprintf(&b, "%-24s %18d %18d %18d %18d\n", l, t.Adds, t.BoostedOps, t.HotPromotions, t.HotDemotions)
	}
	return b.String()
}

// CSVHeader is the column line of the harness CSV output. It is the
// single source of truth for the schema: CSV writes it, compose-bench
// quotes it in its -csv flag help, and the README documents each column
// against it. Columns: scenario ("mix" for the Figs. 6-8 workload, else
// the composed-scenario name), structure (structure label; for composed
// scenarios the structures the scenario spans), bulk_pct (percentage of
// bulk operations; 0 for scenarios), engine, cm (contention-management
// policy; "-" for sequential), dist (key-distribution label,
// workload.DistConfig.Label), theta (Zipfian skew; 0 for non-zipfian
// points), threads, ops_per_ms (completed operations per millisecond of
// measured time, the paper's throughput unit), abort_rate (aborted
// attempts as a percentage of all attempts), allocs_per_op (process-wide
// heap allocations per completed operation over the measured window),
// lat_p50_us/lat_p95_us/lat_p99_us/lat_max_us (per-operation latency
// percentiles and exact maximum over the measured window, microseconds,
// from the merged per-worker histograms), violations (invariant
// violations observed by scenario audits during the measured window plus
// the end-state check; always 0 for the mix and for every transactional
// engine), ops/commits/aborts (raw counts over the measured window,
// summed across runs of a point), one aborts_<cause> column per
// stm.ConflictCause (classified causes first, unknown last; they sum to
// aborts), and the durability axis: wal ("on"/"off" for server load
// results, "-" for in-process runs) with
// wal_appends/wal_syncs/wal_bytes, the server's write-ahead-log deltas
// over the measured window (records appended, group-commit flush
// batches, bytes written), and the commutative hot-key axis:
// adds/boosted_ops/hot_promotions/hot_demotions, the server's
// delta-operation counters over the measured window (delta operations
// accepted, how many ran boosted under abstract per-key locks, keys the
// adaptive tracker promoted, promoted keys folded back by absolute
// operations; all zero for in-process runs and non-add mixes). The wal
// and hot-key columns sit at the end, newest last, so earlier consumers'
// positional indexes keep working: they are not listed here but
// generated from wire.StatsTable (the rows marked CSV, in table order),
// read out of Result.Server by serverCell.
var CSVHeader = func() string {
	cols := "scenario,structure,bulk_pct,engine,cm,dist,theta,threads,ops_per_ms,abort_rate,allocs_per_op," +
		"lat_p50_us,lat_p95_us,lat_p99_us,lat_max_us,violations,ops,commits,aborts"
	for _, c := range displayCauses() {
		cols += ",aborts_" + c.Slug()
	}
	for i := range wire.StatsTable {
		if d := &wire.StatsTable[i]; d.CSV {
			cols += "," + d.Name
		}
	}
	return cols
}()

// serverCell renders one of the CSV's trailing cells: the row's label or
// counter out of the result's server delta, "-" or 0 for an in-process
// result, which has no server behind it.
func serverCell(d *wire.Stat[wire.StatsPayload], srv *wire.StatsPayload) string {
	switch {
	case srv == nil && d.Label != nil:
		return "-"
	case srv == nil:
		return "0"
	case d.Label != nil:
		return d.Label(srv)
	}
	return strconv.FormatUint(*d.Field(srv), 10)
}

// CSV renders results as comma-separated rows with a header, for
// plotting. The schema is CSVHeader.
func CSV(results []Result) string {
	var b strings.Builder
	b.WriteString(CSVHeader)
	b.WriteByte('\n')
	for _, r := range results {
		fmt.Fprintf(&b, "%s,%s,%d,%s,%s,%s,%.2f,%d,%.2f,%.3f,%.3f,%.1f,%.1f,%.1f,%.1f,%d,%d,%d,%d",
			r.Scenario, r.Structure, r.BulkPct, r.Engine, r.CM, r.Dist, r.Theta, r.Threads,
			r.OpsPerMs, r.AbortRate, r.AllocsPerOp,
			usec(r.LatP50), usec(r.LatP95), usec(r.LatP99), usec(r.LatMax),
			r.Violations, r.Ops, r.Commits, r.Aborts)
		for _, c := range displayCauses() {
			fmt.Fprintf(&b, ",%d", r.AbortsByCause[c])
		}
		for i := range wire.StatsTable {
			if d := &wire.StatsTable[i]; d.CSV {
				b.WriteString("," + serverCell(d, r.Server))
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}
