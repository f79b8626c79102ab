// Command bench is the repository's benchmark of record: five named
// workloads — four kinds of traffic against a real compose-server child,
// and the paper's composed set workload in-process — each with verified
// outputs, the end-to-end metrics a user sees (untraced) and a per-layer
// ladder with a traced decomposition. See README.md; run it through
// run.sh, which builds it and the server.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"
)

// defaultSeconds is BENCHMARK.json's run_seconds.
const defaultSeconds = 15

// runRecord is one workload's part of a results file.
type runRecord struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	EndToEnd  metrics `json:"end_to_end,omitempty"`
	PerLayer  metrics `json:"per_layer,omitempty"`
}

// results is the file a run leaves under the output directory, and what
// -compare reads.
type results struct {
	Env       map[string]any        `json:"env"`
	Claim     *string               `json:"claim"` // always null: the benchmark claims no gain
	Workloads map[string]*runRecord `json:"workloads"`
}

func main() {
	var (
		name      = flag.String("workload", "", "run this workload only (default: all, untraced then traced)")
		seed      = flag.Uint64("seed", 1, "seed of the generated inputs")
		seconds   = flag.Int("seconds", defaultSeconds, "length of the measured window")
		trace     = flag.Int("trace", 0, "with -workload: 0 reports the end-to-end metrics, 1 the per-layer metrics of a traced run")
		serverBin = flag.String("server", "", "compose-server binary to spawn (run.sh builds and passes it)")
		outDir    = flag.String("out", "bench/out", "directory for logs, traces and results")
		compare   = flag.Bool("compare", false, "compare two results files given as arguments against the bounds in ./BENCHMARK.json")
	)
	flag.Parse()
	if *compare {
		os.Exit(compareFiles("BENCHMARK.json", flag.Args()))
	}
	if flag.NArg() != 0 || *seconds < 1 || *trace < 0 || *trace > 1 {
		fmt.Fprintln(os.Stderr, "bench: bad arguments; see -h")
		os.Exit(2)
	}
	code, err := runAll(*name, *seed, *seconds, *trace == 1, *serverBin, *outDir)
	killAll()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
	}
	os.Exit(code)
}

func runAll(name string, seed uint64, seconds int, traced bool, serverBin, outDir string) (int, error) {
	if serverBin == "" {
		return 2, errors.New("no -server binary; run the benchmark through bench/run.sh")
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return 1, err
	}
	// WAL directories a killed run left behind.
	stale, _ := filepath.Glob(filepath.Join(outDir, "wal-*")) // the pattern is well-formed
	for _, dir := range stale {
		os.RemoveAll(dir)
	}
	e := &env{outDir: outDir, serverBin: serverBin, report: os.Stdout, ladder: fullLadder}

	// Children must not outlive a benchmark that is interrupted or stuck.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		killAll()
		os.Exit(130)
	}()

	out := results{
		Env: map[string]any{
			"cores": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0), "go": runtime.Version(),
			"git_sha": gitSHA(), "seed": seed, "seconds": seconds, "warmup_seconds": warmup,
			"connections": workers, "time": time.Now().UTC().Format(time.RFC3339),
		},
		Workloads: map[string]*runRecord{},
	}
	single := name != ""
	todo := workloads
	file := "results.json"
	if single {
		w := workloadByName(name)
		if w == nil {
			return 2, fmt.Errorf("unknown workload %q", name)
		}
		todo = []workload{*w}
		file = fmt.Sprintf("result-%s-trace%d.json", name, btoi(traced))
	}

	allCorrect := true
	var last *result
	for i := range todo {
		w := &todo[i]
		rec := &runRecord{Correct: true}
		out.Workloads[w.name] = rec
		for _, tr := range []bool{false, true} {
			if single && tr != traced {
				continue
			}
			// One run may not hang the caller: the contract allows 180 s.
			watchdog := time.AfterFunc(170*time.Second, func() {
				fmt.Fprintln(os.Stderr, "bench: run exceeded 170 s; killing children")
				killAll()
				os.Exit(3)
			})
			res, err := e.run(w, seed, seconds, tr)
			watchdog.Stop()
			if err != nil {
				return 1, fmt.Errorf("%s: %w", w.name, err)
			}
			if name, ok := res.metrics.missing(tr); ok {
				return 1, fmt.Errorf("%s: metric %s was not measured", w.name, name)
			}
			last = res
			e.print(w, tr, res)
			rec.Attempted += res.attempted
			rec.Failed += res.failed
			if tr {
				rec.PerLayer = res.metrics
			} else {
				rec.EndToEnd = res.metrics
			}
		}
		rec.Correct = rec.Failed == 0
		allCorrect = allCorrect && rec.Correct
	}

	body, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return 1, err
	}
	path := filepath.Join(outDir, file)
	if err := os.WriteFile(path, append(body, '\n'), 0o644); err != nil {
		return 1, err
	}
	fmt.Fprintln(e.report, "results written to", path)
	if single {
		// The last line of standard output is the result object.
		line, err := json.Marshal(map[string]any{
			"correct": last.failed == 0, "attempted": last.attempted, "failed": last.failed, "metrics": last.metrics,
		})
		if err != nil {
			return 1, err
		}
		fmt.Println(string(line))
	}
	if !allCorrect {
		return 1, errors.New("output verification failed")
	}
	return 0, nil
}

// print reports a run's metrics by name with their units.
func (e *env) print(w *workload, traced bool, res *result) {
	units, kind := unitsOf(traced), "end-to-end, untraced"
	if traced {
		kind = "per-layer, traced"
	}
	fmt.Fprintf(e.report, "\n%s (%s): %d attempted, %d failed, %d latency samples\n", w.name, kind, res.attempted, res.failed, res.samples)
	if res.firstFail != "" {
		fmt.Fprintln(e.report, "  first failure:", res.firstFail)
	}
	fmt.Fprintf(e.report, "  %-32s %g\n", "error_ratio", ratio(float64(res.failed), float64(res.attempted)))
	for _, u := range units {
		fmt.Fprintf(e.report, "  %-32s %.6g %s\n", u[0], res.metrics[u[0]].Value, u[1])
	}
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

// gitSHA names the commit measured, where the run happens in a git
// checkout.
func gitSHA() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}
