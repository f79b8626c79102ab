// Command compose-server serves the sharded transactional key-value
// store over TCP: one engine instance (selectable, like everywhere in
// the harness), a power-of-two-sharded keyspace of engine-backed
// eec.SkipListMaps, and the length-prefixed binary protocol of
// internal/wire with single-key operations (get/put/remove) and
// composed multi-key operations (mget snapshot, mput, compare-and-move
// across shards), each executed as one relaxed transaction.
//
//	compose-server -addr :7461 -engine oestm -cm adaptive -shards 16
//
// Drive it with compose-load (same table/CSV schema as compose-bench)
// and scrape merged telemetry — per-opcode latency histograms and
// per-cause abort counters across all connections — with the protocol's
// stats request. SIGINT/SIGTERM drain gracefully: accepted connections
// finish the requests they have already sent.
//
// -max-retries bounds every transaction of every request (0 = unlimited):
// a request that exhausts it is answered with a typed retry-exhausted
// error. -unsound splits every composed operation into separate
// transactions (the deliberately broken baseline of the cross-shard
// atomicity checkers); pair it with -max-retries so torn structures cannot
// wedge a connection.
//
// -wal-dir makes the store durable: every acknowledged mutation is
// group-committed to a write-ahead log (internal/wal) before the
// response leaves the server, and a restart pointed at the same
// directory replays the log (and any -snapshot-every checkpoint) back
// into the shards before accepting connections; a directory in an older
// log format is refused with an error and a non-zero exit. -fsync=false trades
// power-loss durability for throughput while remaining crash-safe
// against SIGKILL.
//
// -admin-addr starts the observability plane (internal/obs) on a second
// listener: /metrics (Prometheus text exposition of the same merged
// telemetry the stats opcode serves, plus per-shard series), /stats
// (the binary stats payload over HTTP), /debug/aborts (the abort
// flight recorder, drained on read) and /debug/pprof/. Off by default;
// bind it to localhost or an internal interface — it is unauthenticated.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"oestm/internal/cm"
	"oestm/internal/harness"
	"oestm/internal/obs"
	"oestm/internal/server"
	"oestm/internal/store"
)

func main() {
	var (
		addr    = flag.String("addr", ":7461", "TCP listen address")
		engine  = flag.String("engine", "oestm", "engine to serve: oestm, lsa, tl2, swisstm, estm")
		shards  = flag.Int("shards", store.DefaultShards, "shard count (power of two)")
		cmName  = flag.String("cm", cm.DefaultName, "contention-management policy per connection: "+strings.Join(cm.Names(), "|"))
		retries = flag.Int("max-retries", 0, "bound the retries of every transaction of every request with -exec=conn (0 = unlimited; exhaustion returns a typed error; -exec=batch commits per shard serially and needs no bound)")
		unsound = flag.Bool("unsound", false, "split composed operations into separate transactions (atomicity deliberately broken)")
		boost   = flag.String("boost", "auto", "commutative hot-key path for add/madd: off (read-modify-write control), auto (promote keys whose add stream aborts), on (boost every add)")
		drain   = flag.Duration("drain-timeout", 10*time.Second, "graceful-shutdown budget before connections are closed hard")
		walDir  = flag.String("wal-dir", "", "write-ahead-log directory: makes the store durable, recovering its contents on start (empty = in-memory only)")
		fsync   = flag.Bool("fsync", true, "fsync every WAL group commit (with -wal-dir; off, acknowledged writes survive crashes but not power loss)")
		snap    = flag.Duration("snapshot-every", 0, "periodic WAL snapshot interval (with -wal-dir; 0 = none)")
		exec    = flag.String("exec", server.ExecConn, "execution model: conn (goroutine per connection) or batch (speculative batch executor; pipelined bursts run as optimistic parallel batches committed in arrival order)")
		workers = flag.Int("batch-workers", 0, "batch executor worker-pool size (with -exec=batch; 0 = GOMAXPROCS)")
		maxBat  = flag.Int("max-batch", 0, "max requests per speculation batch (with -exec=batch; 0 = library default)")
		admin   = flag.String("admin-addr", "", "admin HTTP listen address for /metrics, /stats, /debug/aborts and /debug/pprof/ (empty = off)")
	)
	flag.Parse()

	eng, ok := harness.EngineByName(*engine)
	if !ok {
		fmt.Fprintf(os.Stderr, "compose-server: unknown engine %q\n", *engine)
		os.Exit(2)
	}
	boostMode, err := store.ParseBoostMode(*boost)
	if err != nil {
		fmt.Fprintln(os.Stderr, "compose-server:", err)
		os.Exit(2)
	}
	srv, err := server.New(server.Config{
		Addr:          *addr,
		Engine:        eng.Name,
		NewTM:         eng.New,
		Shards:        *shards,
		CM:            *cmName,
		MaxRetries:    *retries,
		Unsound:       *unsound,
		Boost:         boostMode,
		WALDir:        *walDir,
		Fsync:         *fsync,
		SnapshotEvery: *snap,
		Exec:          *exec,
		BatchWorkers:  *workers,
		MaxBatch:      *maxBat,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "compose-server:", err)
		os.Exit(2)
	}
	if rp := srv.Recovery(); rp != nil {
		fmt.Println("compose-server:", rp.Summary())
	}
	// Catch SIGTERM before serving: a client may see the server ready and
	// ask it to stop at once, and that stop must drain, not kill.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	if err := srv.Start(); err != nil {
		fmt.Fprintln(os.Stderr, "compose-server:", err)
		os.Exit(1)
	}
	var adm *obs.Admin
	if *admin != "" {
		adm = obs.NewAdmin(obs.AdminConfig{
			Addr:     *admin,
			Stats:    srv.Telemetry,
			Recorder: srv.Flight(),
		})
		if err := adm.Start(); err != nil {
			fmt.Fprintln(os.Stderr, "compose-server: admin:", err)
			os.Exit(1)
		}
		fmt.Printf("compose-server: admin plane on http://%s (/metrics /stats /debug/aborts /debug/pprof/)\n", adm.Addr())
	}
	mode := ""
	if *unsound {
		mode = " (UNSOUND: composed atomicity deliberately broken)"
	}
	fmt.Printf("compose-server: engine=%s cm=%s shards=%d exec=%s boost=%s listening on %s%s\n",
		eng.Name, *cmName, *shards, *exec, boostMode, srv.Addr(), mode)

	<-sig
	fmt.Println("compose-server: draining...")
	ctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "compose-server: drain incomplete:", err)
		os.Exit(1)
	}
	if adm != nil {
		// After the data plane: a scrape racing the drain still answers.
		if err := adm.Shutdown(ctx); err != nil {
			fmt.Fprintln(os.Stderr, "compose-server: admin drain incomplete:", err)
		}
	}
	fmt.Println("compose-server: drained")
}
