package harness

import (
	"bytes"
	"context"
	"runtime"
	"strings"
	"testing"
	"time"

	"oestm/internal/server"
	"oestm/internal/store"
)

// startFaninServer boots an in-process compose-server for the
// counter-fanin checkers.
func startFaninServer(t *testing.T, cfg server.Config) *server.Server {
	t.Helper()
	if cfg.Addr == "" {
		cfg.Addr = "127.0.0.1:0"
	}
	srv, err := server.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	})
	return srv
}

// TestCounterFaninExactSum is the conservation checker on the composing
// engines: zero-sum transfers plus tracked fan-in adds must show zero
// violations — during the concurrent audits and in the quiesced
// end-state checks — with the boosted hot-key path on.
func TestCounterFaninExactSum(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(8)) // real interleaving on small CI boxes
	for _, eng := range Engines() {
		t.Run(eng.Name, func(t *testing.T) {
			srv := startFaninServer(t, server.Config{
				Engine:     eng.Name,
				NewTM:      eng.New,
				Shards:     8,
				MaxRetries: 2000,
				Boost:      store.BoostOn,
			})
			var progress bytes.Buffer
			r, err := RunCounterFanin(LoadConfig{
				Addr:     srv.Addr().String(),
				Conns:    4,
				Duration: 80 * time.Millisecond,
				Warmup:   20 * time.Millisecond,
				Keys:     16,

				ReportEvery: 20 * time.Millisecond,
				ReportTo:    &progress,
			})
			if err != nil {
				t.Fatal(err)
			}
			if r.Violations != 0 {
				t.Fatalf("%s: counter conservation broken: %d violations", eng.Name, r.Violations)
			}
			if r.Scenario != CounterFaninScenario || r.Ops == 0 {
				t.Fatalf("malformed result: %+v", r)
			}
			if r.Server.Adds == 0 || r.Server.BoostedOps == 0 {
				t.Fatalf("boosted path unused: adds=%d boosted=%d", r.Server.Adds, r.Server.BoostedOps)
			}
			// The checker runs on the same measured window as RunLoad, so
			// it honours -report-every and measures the client's
			// allocation rate (the in-process server's stats scrapes
			// alone make that non-zero here).
			if !strings.Contains(progress.String(), "ops/s=") {
				t.Fatalf("report-every produced no progress lines: %q", progress.String())
			}
			if r.AllocsPerOp <= 0 {
				t.Fatalf("allocs/op not measured: %+v", r)
			}
		})
	}
}

// TestCounterFaninUnsoundViolates REQUIRES the checker to catch the
// unsound ablation: with composed operations split into separate
// transactions, torn snapshots and lost updates must surface as
// violations. A few short runs are allowed before declaring the checker
// blind.
func TestCounterFaninUnsoundViolates(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(8))
	eng, _ := EngineByName("oestm")
	srv := startFaninServer(t, server.Config{
		Engine:     eng.Name,
		NewTM:      eng.New,
		Shards:     8,
		MaxRetries: 2000,
		Unsound:    true,
	})
	for attempt := 0; attempt < 5; attempt++ {
		r, err := RunCounterFanin(LoadConfig{
			Addr:     srv.Addr().String(),
			Conns:    4,
			Duration: 120 * time.Millisecond,
			Warmup:   10 * time.Millisecond,
			Keys:     16,
			Seed:     uint64(attempt) + 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		if r.Violations > 0 {
			return
		}
	}
	t.Fatal("unsound server produced no counter-fanin violations in 5 runs; the checker is blind")
}
