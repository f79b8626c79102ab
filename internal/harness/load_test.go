package harness

import (
	"bytes"
	"context"
	"strings"
	"testing"
	"time"

	"oestm/internal/server"
	"oestm/internal/store"
	"oestm/internal/wire"
	"oestm/internal/workload"
)

func TestLoadMixParseAndValidate(t *testing.T) {
	if err := DefaultLoadMix().Validate(); err != nil {
		t.Fatal(err)
	}
	m, err := ParseLoadMix("get:50,put:30,cam:20")
	if err != nil {
		t.Fatal(err)
	}
	if m.GetPct != 50 || m.PutPct != 30 || m.CamPct != 20 || m.RemovePct != 0 {
		t.Fatalf("parsed %+v", m)
	}
	round, err := ParseLoadMix(DefaultLoadMix().String())
	if err != nil || round != DefaultLoadMix() {
		t.Fatalf("String/Parse round trip: %+v, %v", round, err)
	}
	adds, err := ParseLoadMix("get:20,add:60,madd:20")
	if err != nil {
		t.Fatal(err)
	}
	if adds.AddPct != 60 || adds.MAddPct != 20 {
		t.Fatalf("parsed add mix %+v", adds)
	}
	round, err = ParseLoadMix(adds.String())
	if err != nil || round != adds {
		t.Fatalf("add mix String/Parse round trip: %+v, %v", round, err)
	}
	for _, bad := range []string{"get:50", "get:blah,put:100", "nope:100", "get", "add:50,madd:60"} {
		if _, err := ParseLoadMix(bad); err == nil {
			t.Errorf("ParseLoadMix(%q) accepted", bad)
		}
	}
}

// TestRunLoadAddMix drives the add/madd mix against a boosted server and
// checks the hot-key columns come back attributed.
func TestRunLoadAddMix(t *testing.T) {
	eng, _ := EngineByName("oestm")
	srv := startFaninServer(t, server.Config{
		Engine:     eng.Name,
		NewTM:      eng.New,
		Shards:     8,
		MaxRetries: 2000,
		Boost:      store.BoostOn,
	})
	var progress bytes.Buffer
	r, err := RunLoad(LoadConfig{
		Addr:     srv.Addr().String(),
		Conns:    2,
		Duration: 90 * time.Millisecond,
		Warmup:   20 * time.Millisecond,
		Keys:     64,
		Span:     4,
		Mix:      LoadMix{GetPct: 20, AddPct: 50, MAddPct: 25, MGetPct: 5},
		Dist:     workload.DistConfig{Name: workload.DistZipfian, Theta: 0.99},

		ReportEvery: 25 * time.Millisecond,
		ReportTo:    &progress,
	})
	if err != nil {
		t.Fatal(err)
	}
	if r.Ops == 0 {
		t.Fatalf("no throughput: %+v", r)
	}
	if r.Server.Adds == 0 || r.Server.BoostedOps == 0 {
		t.Fatalf("hot-key columns not attributed: adds=%d boosted=%d", r.Server.Adds, r.Server.BoostedOps)
	}
	csv := CSV([]Result{r})
	if !strings.Contains(CSVHeader, "adds,boosted_ops,hot_promotions,hot_demotions") {
		t.Fatalf("csv header missing hot-key columns: %s", CSVHeader)
	}
	if !strings.HasPrefix(csv, CSVHeader+"\n") {
		t.Fatal("csv header wrong")
	}
	if !strings.Contains(progress.String(), "ops/s=") || !strings.Contains(progress.String(), "abort%=") {
		t.Fatalf("report-every produced no progress lines: %q", progress.String())
	}
	if table := FormatScenario([]Result{r}, LoadScenario); !strings.Contains(table, "hot-key path") {
		t.Fatalf("scenario table missing hot-key block:\n%s", table)
	}

	// The same run must have populated the per-shard telemetry block, and
	// the shard ops must account for (at least) the keyed requests.
	cl, err := server.DialTimeout(srv.Addr().String(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	var p wire.StatsPayload
	if err := cl.Stats(&p); err != nil {
		t.Fatal(err)
	}
	if len(p.ShardStats) != 8 {
		t.Fatalf("ShardStats has %d entries, want 8", len(p.ShardStats))
	}
	var shardOps uint64
	for _, s := range p.ShardStats {
		shardOps += s.Ops
	}
	if shardOps == 0 {
		t.Fatal("per-shard ops all zero after a keyed load")
	}
}

// TestRunLoadAllEngines is the loopback acceptance path: every engine
// serves a short closed-loop run and lands in the standard Result with
// sane metrics and server-attributed identity.
func TestRunLoadAllEngines(t *testing.T) {
	for _, eng := range AllEngines() {
		t.Run(eng.Name, func(t *testing.T) {
			srv, err := server.New(server.Config{
				Addr:       "127.0.0.1:0",
				Engine:     eng.Name,
				NewTM:      eng.New,
				Shards:     8,
				CM:         "adaptive",
				MaxRetries: 2000, // liveness guard for the estm ablation
			})
			if err != nil {
				t.Fatal(err)
			}
			if err := srv.Start(); err != nil {
				t.Fatal(err)
			}
			defer func() {
				ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
				defer cancel()
				if err := srv.Shutdown(ctx); err != nil {
					t.Errorf("shutdown: %v", err)
				}
			}()

			r, err := RunLoad(LoadConfig{
				Addr:     srv.Addr().String(),
				Conns:    2,
				Duration: 60 * time.Millisecond,
				Warmup:   20 * time.Millisecond,
				Keys:     256,
				Dist:     workload.DistConfig{Name: workload.DistZipfian, Theta: 0.9},
			})
			if err != nil {
				t.Fatal(err)
			}
			if r.Engine != eng.Name || r.CM != "adaptive" || r.Scenario != LoadScenario {
				t.Fatalf("identity: %+v", r)
			}
			if r.Structure != "store/8shards" || r.Threads != 2 {
				t.Fatalf("coordinates: %+v", r)
			}
			if r.Dist != "zipfian:0.90" || r.Theta != 0.9 {
				t.Fatalf("distribution columns: %+v", r)
			}
			if r.Ops == 0 || r.OpsPerMs <= 0 {
				t.Fatalf("no throughput measured: %+v", r)
			}
			if r.LatP50 <= 0 || r.LatP99 < r.LatP50 || r.LatMax < r.LatP99 {
				t.Fatalf("latency columns inconsistent: p50=%v p99=%v max=%v", r.LatP50, r.LatP99, r.LatMax)
			}
			if r.Commits == 0 {
				t.Fatalf("no server commits attributed: %+v", r)
			}
			var causes uint64
			for _, n := range r.AbortsByCause {
				causes += n
			}
			if causes != r.Aborts {
				t.Fatalf("per-cause aborts %d != aborts %d", causes, r.Aborts)
			}
		})
	}
}

// TestLoadResultFormats pins that networked results render through the
// existing table and CSV pipeline.
func TestLoadResultFormats(t *testing.T) {
	eng, _ := EngineByName("oestm")
	srv, err := server.New(server.Config{Addr: "127.0.0.1:0", Engine: eng.Name, NewTM: eng.New, Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	}()
	r, err := RunLoad(LoadConfig{
		Addr:     srv.Addr().String(),
		Conns:    2,
		Duration: 40 * time.Millisecond,
		Warmup:   10 * time.Millisecond,
		Keys:     128,
	})
	if err != nil {
		t.Fatal(err)
	}
	table := FormatScenario([]Result{r}, LoadScenario)
	for _, want := range []string{"scenario server", "store/4shards", "oestm", "p99us"} {
		if !strings.Contains(table, want) {
			t.Fatalf("table missing %q:\n%s", want, table)
		}
	}
	csv := CSV([]Result{r})
	if !strings.HasPrefix(csv, CSVHeader+"\n") {
		t.Fatal("csv header wrong")
	}
	if !strings.Contains(csv, "server,store/4shards,0,oestm,passive,uniform,0.00,2,") {
		t.Fatalf("csv row malformed:\n%s", csv)
	}
}

// TestRunLoadRejectsBadConfig covers the validation surface.
func TestRunLoadRejectsBadConfig(t *testing.T) {
	if _, err := RunLoad(LoadConfig{Addr: "127.0.0.1:1", Mix: LoadMix{GetPct: 50}}); err == nil {
		t.Fatal("bad mix accepted")
	}
	if _, err := RunLoad(LoadConfig{Addr: "127.0.0.1:1", Dist: workload.DistConfig{Name: "bogus"}}); err == nil {
		t.Fatal("bad distribution accepted")
	}
	if _, err := RunLoad(LoadConfig{Addr: "127.0.0.1:1", Span: -1}); err == nil {
		t.Fatal("negative span accepted")
	}
	if _, err := RunLoad(LoadConfig{Addr: "127.0.0.1:1", Conns: -4}); err == nil {
		t.Fatal("negative conns accepted")
	}
	if _, err := RunLoad(LoadConfig{Addr: "127.0.0.1:1", Duration: time.Millisecond}); err == nil {
		t.Fatal("dead address accepted")
	}
}

// TestRunLoadWorkerFailureEndsWindow pins that a failed worker ends the
// measured window: the server goes away 50 ms into a 30 s window, and the
// error must come back at once, not after the window has been slept out.
func TestRunLoadWorkerFailureEndsWindow(t *testing.T) {
	eng, _ := EngineByName("oestm")
	srv, err := server.New(server.Config{Addr: "127.0.0.1:0", Engine: eng.Name, NewTM: eng.New, Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	down := make(chan error, 1)
	time.AfterFunc(50*time.Millisecond, func() {
		// An already-expired drain deadline: connections are cut, not waited for.
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		down <- srv.Shutdown(ctx)
	})
	begin := time.Now()
	_, err = RunLoad(LoadConfig{
		Addr:     srv.Addr().String(),
		Conns:    2,
		Duration: 30 * time.Second,
		Keys:     64,
	})
	took := time.Since(begin)
	<-down
	if err == nil {
		t.Fatal("load against a dead server reported no error")
	}
	if took > 2*time.Second {
		t.Fatalf("error %q surfaced after %v; a failed worker must end the window", err, took)
	}
}

// parentCSVHeader is the CSV schema as it stood before the columns were
// generated from wire.StatsTable. CI greps on ",wal,wal_appends,...,
// hot_demotions$" and positional consumers depend on this exact order.
const parentCSVHeader = "scenario,structure,bulk_pct,engine,cm,dist,theta,threads,ops_per_ms,abort_rate,allocs_per_op," +
	"lat_p50_us,lat_p95_us,lat_p99_us,lat_max_us,violations,ops,commits,aborts," +
	"aborts_read_validation,aborts_lock_busy,aborts_snapshot_extension,aborts_commit_validation," +
	"aborts_elastic_window,aborts_doomed,aborts_explicit,aborts_unknown," +
	"wal,wal_appends,wal_syncs,wal_bytes," +
	"adds,boosted_ops,hot_promotions,hot_demotions"

// TestCSVSchemaPinned pins the CSV byte for byte against literals: the
// header, one networked row with every server column distinct, and one
// in-process row (no server: "-" labels, zero counters).
func TestCSVSchemaPinned(t *testing.T) {
	if CSVHeader != parentCSVHeader {
		t.Fatalf("CSVHeader drifted:\n got %s\nwant %s", CSVHeader, parentCSVHeader)
	}
	r := Result{
		Engine: "oestm", Scenario: "server", Structure: "store/16shards", CM: "adaptive",
		Dist: "zipfian:0.99", Theta: 0.99, Threads: 4, OpsPerMs: 123.456, AbortRate: 1.2345, AllocsPerOp: 0.0123,
		LatP50: 1500 * time.Nanosecond, LatP95: 2500 * time.Nanosecond, LatP99: 3500 * time.Nanosecond, LatMax: 45 * time.Microsecond,
		Violations: 1, Ops: 1000, Commits: 900, Aborts: 36,
		Server: &wire.StatsPayload{
			WALEnabled: true, WALAppends: 11, WALSyncs: 12, WALBytes: 13,
			Adds: 31, BoostedOps: 32, HotPromotions: 33, HotDemotions: 34,
		},
	}
	for i := range r.AbortsByCause {
		r.AbortsByCause[i] = uint64(i + 1)
	}
	seq := Result{Engine: "sequential", Scenario: "mix", Structure: "linkedlist", BulkPct: 5, CM: "-", Dist: "uniform", Threads: 1, OpsPerMs: 9.5, Ops: 77}
	want := parentCSVHeader + "\n" +
		"server,store/16shards,0,oestm,adaptive,zipfian:0.99,0.99,4,123.46,1.234,0.012,1.5,2.5,3.5,45.0,1,1000,900,36,2,3,4,5,6,7,8,1,on,11,12,13,31,32,33,34\n" +
		"mix,linkedlist,5,sequential,-,uniform,0.00,1,9.50,0.000,0.000,0.0,0.0,0.0,0.0,0,77,0,0,0,0,0,0,0,0,0,0,-,0,0,0,0,0,0,0\n"
	if got := CSV([]Result{r, seq}); got != want {
		t.Fatalf("CSV drifted:\n got %s\nwant %s", got, want)
	}
}
