// Command compose-load is the closed-loop load generator for
// compose-server: N connections each issue one request at a time —
// get/put/remove plus the composed mget/mput/compare-and-move, mixed by
// -mix — timing every round trip into the harness's allocation-free
// histograms, with keys drawn through the same distribution layer as the
// in-process workloads (-dist/-theta/-hot/-shift-every).
//
// Results print in the harness's scenario table and CSV schema
// (harness.CSVHeader), so a networked run is column-for-column
// comparable with compose-bench: engine and cm come from the server's
// stats endpoint, abort telemetry (total and per cause) is the server
// delta over the measured window, latency percentiles are client-side
// round-trip times.
//
//	compose-server -engine oestm -cm adaptive &
//	compose-load -addr localhost:7461 -conns 8 -dist zipfian -theta 0.99 -duration 5s -csv out.csv
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"oestm/internal/harness"
	"oestm/internal/workload"
)

func main() {
	var (
		addr     = flag.String("addr", "localhost:7461", "compose-server address")
		conns    = flag.Int("conns", 8, "connections (= concurrent closed loops; the table's threads column)")
		duration = flag.Duration("duration", 5*time.Second, "measured duration")
		warmup   = flag.Duration("warmup", 500*time.Millisecond, "warmup before measuring")
		keys     = flag.Int("keys", 1<<13, "key universe size")
		span     = flag.Int("span", 8, "batch size of mget/mput requests")
		mixSpec  = flag.String("mix", harness.DefaultLoadMix().String(), "request mix, op:pct pairs summing to 100")
		dist     = flag.String("dist", workload.DistUniform, "key distribution: "+strings.Join(workload.DistNames(), "|"))
		theta    = flag.Float64("theta", workload.DefaultTheta, "zipfian skew in (0,1)")
		hot      = flag.String("hot", fmt.Sprintf("%d/%d", workload.DefaultHotOpsPct, workload.DefaultHotKeysPct), "hotspot shape opsPct/keysPct")
		shift    = flag.Int("shift-every", workload.DefaultShiftEvery, "shifting-hotspot rotation period (draws)")
		pipeline = flag.Int("pipeline", 1, "requests per round trip (pipelining depth)")
		seed     = flag.Uint64("seed", 0, "worker seed (0 = default)")
		noFill   = flag.Bool("no-fill", false, "skip pre-filling the keyspace")
		report   = flag.Duration("report-every", 0, "print live windowed progress (ops/s, p50/p99, abort rate) to stderr at this period while measuring (0 = off)")
		csvPath  = flag.String("csv", "", "also write the result as CSV (schema: "+harness.CSVHeader+")")
		scenario = flag.String("scenario", harness.LoadScenario, "load shape: server (the -mix closed loop) or counter-fanin (conservation checker: zero-sum madd transfers + tracked fan-in adds + snapshot audits; exits 3 on violations)")
		expViol  = flag.Bool("expect-violation", false, "with -scenario counter-fanin: require violations > 0 (for checking an -unsound server) instead of requiring 0")
	)
	flag.Parse()

	mix, err := harness.ParseLoadMix(*mixSpec)
	if err != nil {
		fmt.Fprintln(os.Stderr, "compose-load:", err)
		os.Exit(2)
	}
	var hotOps, hotKeys int
	if _, err := fmt.Sscanf(*hot, "%d/%d", &hotOps, &hotKeys); err != nil {
		fmt.Fprintf(os.Stderr, "compose-load: -hot %q: want opsPct/keysPct\n", *hot)
		os.Exit(2)
	}
	distCfg := workload.DistConfig{
		Name:       *dist,
		Theta:      *theta,
		HotOpsPct:  hotOps,
		HotKeysPct: hotKeys,
		ShiftEvery: *shift,
	}
	if err := distCfg.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, "compose-load:", err)
		os.Exit(2)
	}

	loadCfg := harness.LoadConfig{
		Addr:     *addr,
		Conns:    *conns,
		Duration: *duration,
		Warmup:   *warmup,
		Keys:     *keys,
		Span:     *span,
		Mix:      mix,
		Dist:     distCfg,
		Seed:     *seed,
		SkipFill: *noFill,
		Pipeline: *pipeline,

		ReportEvery: *report,
	}
	var result harness.Result
	switch *scenario {
	case harness.LoadScenario:
		result, err = harness.RunLoad(loadCfg)
	case harness.CounterFaninScenario:
		result, err = harness.RunCounterFanin(loadCfg)
	default:
		fmt.Fprintf(os.Stderr, "compose-load: unknown -scenario %q (want %s or %s)\n",
			*scenario, harness.LoadScenario, harness.CounterFaninScenario)
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "compose-load:", err)
		os.Exit(1)
	}

	results := []harness.Result{result}
	fmt.Println(harness.FormatScenario(results, *scenario))
	if *csvPath != "" {
		if err := os.WriteFile(*csvPath, []byte(harness.CSV(results)), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "compose-load: write csv:", err)
			os.Exit(1)
		}
		fmt.Println("csv written to", *csvPath)
	}
	if *scenario == harness.CounterFaninScenario {
		if *expViol && result.Violations == 0 {
			fmt.Fprintln(os.Stderr, "compose-load: counter-fanin expected violations (unsound server) but saw none")
			os.Exit(3)
		}
		if !*expViol && result.Violations > 0 {
			fmt.Fprintf(os.Stderr, "compose-load: counter-fanin conservation broken: %d violations\n", result.Violations)
			os.Exit(3)
		}
	}
}
