package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"

	"oestm/internal/store"
	"oestm/internal/wire"
)

// The tests run in-process only — no server child — so they stay fast and
// cannot flake on ports or scheduling.

// encode renders the first n requests of a stream as the bytes a
// connection would send.
func encode(w *workload, stream []reqDesc, n int) []byte {
	var out []byte
	var q wire.Request
	for _, d := range stream[:n] {
		w.expand(d, &q)
		out = appendFrame(out, &q)
	}
	return out
}

func TestSameSeedSameStream(t *testing.T) {
	const n = 4096
	for i := range workloads {
		w := &workloads[i]
		if w.lib {
			a, b := genLibStream(7, 1, n), genLibStream(7, 1, n)
			if !slices.Equal(a, b) {
				t.Errorf("%s: same seed, different streams", w.name)
			}
			if slices.Equal(a, genLibStream(8, 1, n)) || slices.Equal(a, genLibStream(7, 0, n)) {
				t.Errorf("%s: stream ignores the seed or the worker", w.name)
			}
			continue
		}
		a := encode(w, genStream(w, 7, 1, n), n)
		if !bytes.Equal(a, encode(w, genStream(w, 7, 1, n), n)) {
			t.Errorf("%s: same seed, different bytes", w.name)
		}
		if bytes.Equal(a, encode(w, genStream(w, 8, 1, n), n)) || bytes.Equal(a, encode(w, genStream(w, 7, 0, n), n)) {
			t.Errorf("%s: stream ignores the seed or the connection", w.name)
		}
	}
}

func TestMixShares(t *testing.T) {
	const n = 1 << 16
	for i := range workloads {
		w := &workloads[i]
		if w.lib {
			continue
		}
		var seen [wire.NumOps]int
		for _, d := range genStream(w, 1, 0, n) {
			seen[d.op]++
		}
		total := 0
		for _, m := range w.mix {
			total += m.pct
			if got := 100 * float64(seen[m.op]) / n; math.Abs(got-float64(m.pct)) > 1 {
				t.Errorf("%s: %s is %.1f%% of the stream, want %d%%", w.name, m.op, got, m.pct)
			}
		}
		if total != 100 {
			t.Errorf("%s: mix sums to %d%%", w.name, total)
		}
	}
}

func TestZipfRankZero(t *testing.T) {
	const keys, theta, n = 1 << 10, 0.99, 200_000
	var zeta float64
	for i := 1; i <= keys; i++ {
		zeta += 1 / math.Pow(float64(i), theta)
	}
	z := newZipf(keys, theta)
	r := rng{s: 1}
	hits := 0
	for i := 0; i < n; i++ {
		k := z.draw(&r)
		if k < 0 || k >= keys {
			t.Fatalf("rank %d out of range", k)
		}
		if k == 0 {
			hits++
		}
	}
	if got, want := float64(hits)/n, 1/zeta; math.Abs(got-want) > 0.005 {
		t.Errorf("rank 0 drawn with frequency %.4f, want %.4f", got, want)
	}
}

// TestRequestPathInProcess ties the generator, the unrolled request path
// and the response checker together: every response the in-process store
// gives to a generated request must pass the checks a served response
// does, and counters must end at the sum of the deltas the checker saw.
func TestRequestPathInProcess(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		if w.lib {
			continue
		}
		p, err := newInproc("", store.BoostAuto)
		if err != nil {
			t.Fatal(err)
		}
		p.prefill(w)
		lw := newLoadWorker(w, &client{}, genStream(w, 3, 0, 4096))
		var q wire.Request
		var r wire.Response
		for _, d := range lw.stream {
			w.expand(d, &q)
			p.exec(&q, &r)
			if err := lw.check(d, wire.AppendResponse(nil, d.op, &r)); err != nil {
				t.Fatalf("%s: %v", w.name, err)
			}
		}
		if !w.counters {
			// A value no request writes must be caught.
			bad := wire.AppendResponse(nil, wire.OpGet, &wire.Response{Status: wire.StatusOK, Val: 7})
			if lw.check(reqDesc{op: wire.OpGet}, bad) == nil {
				t.Errorf("%s: a foreign value passed the check", w.name)
			}
			continue
		}
		for k, want := range lw.sums {
			if got, _ := p.fr.Get(int64(k)); got != want {
				t.Fatalf("%s: counter %d is %d, deltas sum to %d", w.name, k, got, want)
			}
		}
	}
}

func TestLibWorkloadVerifies(t *testing.T) {
	streams := [][]libOp{genLibStream(5, 0, 3000), genLibStream(5, 1, 3000)}
	s, _ := setUpLib(streams)
	for _, lw := range s.workers {
		for _, op := range lw.stream {
			if !lw.apply(op) {
				t.Fatalf("worker %d: %s(%d,%d) answered against the worker's record", lw.id, libOpNames[op.kind], op.a, op.b)
			}
		}
	}
	if o := s.verify(); o.failed != 0 {
		t.Fatal(o.firstFail)
	}
	// An update behind the workers' backs must be caught.
	s.set.Add(s.workers[0].th, libRange+1)
	if o := s.verify(); o.failed == 0 {
		t.Error("an unrecorded element passed the final audit")
	}
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

type declared struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

// TestDeclarationMatchesProgram keeps BENCHMARK.json and the program in
// step: the same workloads for the same reasons, and every declared
// metric one the program reports, under a well-formed name and unit.
func TestDeclarationMatchesProgram(t *testing.T) {
	var d declared
	if err := readJSON(filepath.Join("..", "BENCHMARK.json"), &d); err != nil {
		t.Fatal(err)
	}
	if d.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, program default %d", d.RunSeconds, defaultSeconds)
	}
	if len(d.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, program has %d", len(d.Workloads), len(workloads))
	}
	for i, w := range d.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d declared as %q (%q), program has %q (%q)", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
		if !nameRE.MatchString(w.Name) || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %q: malformed name or reason", w.Name)
		}
	}
	check := func(kind string, i int, name, unit, better string, units [][2]string) {
		if i >= len(units) || units[i][0] != name || units[i][1] != unit {
			t.Errorf("%s metric %d declared as %s [%s], which the program does not report there", kind, i, name, unit)
		}
		if !nameRE.MatchString(name) || !unitRE.MatchString(unit) || (better != "lower" && better != "higher") {
			t.Errorf("%s metric %s: malformed name, unit or direction", kind, name)
		}
	}
	if len(d.EndToEnd) != len(endToEndUnits) || len(d.PerLayer) != len(perLayerUnits) {
		t.Fatalf("declared %d+%d metrics, program reports %d+%d", len(d.EndToEnd), len(d.PerLayer), len(endToEndUnits), len(perLayerUnits))
	}
	for i, m := range d.EndToEnd {
		check("end-to-end", i, m.Name, m.Unit, m.Better, endToEndUnits)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	for i, m := range d.PerLayer {
		check("per-layer", i, m.Name, m.Unit, m.Better, perLayerUnits)
	}
}

// TestLadderTiny runs every in-process probe at a tiny size and requires
// that, with the served metrics, they cover every per-layer metric that
// does not need a server child.
func TestLadderTiny(t *testing.T) {
	e := &env{outDir: t.TempDir(), report: io.Discard}
	sz := ladderSize{rounds: 1, iters: 16}
	m := metrics{}
	set := func(name string, v float64) {
		if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
			t.Errorf("%s = %g", name, v)
		}
		m.set(perLayerUnits, name, v)
	}
	wireProbes(sz, set)
	mvarProbes(sz, set)
	coreProbes(sz, set)
	eecProbes(sz, set)
	for name, probes := range map[string]func(*env, ladderSize, func(string, float64)) error{
		"store": storeProbes, "wal": walProbes,
	} {
		if err := probes(e, sz, set); err != nil {
			t.Fatalf("%s probes: %v", name, err)
		}
	}
	if err := specexecProbes(sz, set); err != nil {
		t.Fatal(err)
	}
	win := &window{ops: 1, slices: []slice{{seconds: 1, ops: 1, durs: []int32{1}}}}
	servedLayers(m, win, win)
	for _, u := range perLayerUnits {
		if _, ok := m[u[0]]; !ok && !strings.HasPrefix(u[0], "server.") {
			t.Errorf("no probe reports %s", u[0])
		}
	}
	for _, name := range []string{"wire.codec_allocs", "store.get_allocs", "core.txn_allocs"} {
		if m[name].Value != 0 {
			t.Errorf("%s = %g, the pinned zero-allocation paths allocate", name, m[name].Value)
		}
	}
	if left, _ := filepath.Glob(filepath.Join(e.outDir, "wal-*")); len(left) != 0 {
		t.Errorf("probes left WAL directories behind: %v", left)
	}
}

func TestCompare(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, v any) string {
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	file := func(name string, ops, lat float64) string {
		return write(name, results{Workloads: map[string]*runRecord{"rt-point": {Correct: true, EndToEnd: metrics{
			"ops_per_s":  {Value: ops, Unit: "1/s"},
			"lat_p50_us": {Value: lat, Unit: "us"},
		}}}})
	}
	spec := write("spec.json", map[string]any{
		"workloads": []map[string]string{{"name": "rt-point"}},
		"end_to_end": []map[string]any{
			{"name": "ops_per_s", "unit": "1/s", "better": "higher", "bound": 0.10},
			{"name": "lat_p50_us", "unit": "us", "better": "lower", "bound": 0.10},
		},
	})
	base := file("a.json", 1000, 50)
	stdout := os.Stdout
	os.Stdout, _ = os.OpenFile(os.DevNull, os.O_WRONLY, 0) // a nil Stdout drops the output just as well
	defer func() { os.Stdout = stdout }()
	if code := compareFiles(spec, []string{base, file("b.json", 950, 52)}); code != 0 {
		t.Errorf("within bounds: exit %d", code)
	}
	if code := compareFiles(spec, []string{base, file("c.json", 850, 50)}); code != 1 {
		t.Errorf("throughput 15%% lower: exit %d, want 1", code)
	}
	if code := compareFiles(spec, []string{base, file("d.json", 1200, 40)}); code != 0 {
		t.Errorf("better on both: exit %d", code)
	}
}
