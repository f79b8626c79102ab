package main

import "oestm/internal/wire"

// Load shape shared by every workload: a closed loop (each caller waits
// for its reply) of two callers. Two is the core count of the machine the
// benchmark was sized on; it is fixed, not scaled, so runs on different
// machines drive the same load.
const (
	workers = 2
	// warmup precedes every measured window.
	warmup = 2 // seconds
	// streamLen is the number of pre-generated requests per connection;
	// a connection that exhausts its stream starts it again.
	streamLen = 1 << 20
	// kvKeys is the prefilled keyspace of the key-value workloads:
	// 4 096 keys on each of the server's 16 default shards.
	kvKeys = 1 << 16
	// span is the key count of every multi-key request.
	span = 8
)

// mixEntry is one opcode's share of a traffic mix, in percent.
type mixEntry struct {
	op  wire.Op
	pct int
}

// workload is one named set of inputs. The serving workloads are traffic
// against a compose-server started with its default flags (plus a WAL
// directory when wal is set); lib drives the public oestm facade
// in-process instead.
type workload struct {
	name string
	why  string

	pipeline int     // requests per burst
	keys     int     // keyspace size, all prefilled
	theta    float64 // zipfian skew; 0 = uniform
	mix      []mixEntry
	wal      bool // -wal-dir <fresh dir> -fsync=false
	counters bool // values are counters (add/madd traffic), verified by sum
	lib      bool
}

// workloads is the benchmark's fixed set. BENCHMARK.json repeats the
// names and reasons; bench_test.go keeps the two in step.
var workloads = []workload{
	{
		name:     "rt-point",
		why:      "pipeline 1 point ops: one syscall pair per request, so server loop, socket and wire dominate and store does little",
		pipeline: 1, keys: kvKeys,
		mix: []mixEntry{{wire.OpGet, 80}, {wire.OpPut, 15}, {wire.OpRemove, 5}},
	},
	{
		name:     "pipe-mixed",
		why:      "pipeline 16 mixed single and composed ops: syscalls amortised, so store/eec/core execution and the wire codec dominate; no WAL",
		pipeline: 16, keys: kvKeys,
		mix: []mixEntry{{wire.OpGet, 60}, {wire.OpPut, 20}, {wire.OpRemove, 5},
			{wire.OpMGet, 5}, {wire.OpMPut, 5}, {wire.OpCompareAndMove, 5}},
	},
	{
		name:     "durable-write",
		why:      "write-heavy at pipeline 8 with the WAL on (fsync off): wal append, group commit and the logged store paths dominate",
		pipeline: 8, keys: kvKeys, wal: true,
		mix: []mixEntry{{wire.OpPut, 50}, {wire.OpMPut, 20}, {wire.OpCompareAndMove, 10},
			{wire.OpRemove, 10}, {wire.OpGet, 10}},
	},
	{
		name:     "hot-counter",
		why:      "zipfian 0.99 commutative deltas on 1024 counters: the store's add/boost path and the only serving workload with real conflicts",
		pipeline: 8, keys: 1 << 10, theta: 0.99, counters: true,
		mix: []mixEntry{{wire.OpAdd, 70}, {wire.OpMAdd, 15}, {wire.OpGet, 10}, {wire.OpMGet, 5}},
	},
	{
		name: "lib-compose",
		why:  "in-process LinkedListSet with 15% composed bulk ops (paper Fig. 6): core/eec/mvar do all the work, server/wire/wal none",
		lib:  true,
	},
}

// workloadByName finds a workload.
func workloadByName(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// metric is a named value with its unit, as printed and as written to
// the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Metric names and units, in report order. BENCHMARK.json lists the same
// names; bench_test.go keeps the two in step.
var endToEndUnits = [][2]string{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"lat_p50_us", "us"},
	{"cpu_us_per_op", "us"},
	{"alloc_bytes_per_op", "bytes"},
}

var perLayerUnits = [][2]string{
	{"server.wait_us_per_op", "us"},
	{"server.self_us_per_op", "us"},
	{"server.rt_us.p1", "us"},
	{"server.rt_us.p16", "us"},
	{"server.rt_p99_us", "us"},
	{"wire.req_codec_ns.get", "ns"},
	{"wire.req_codec_ns.mput8", "ns"},
	{"wire.resp_codec_ns.get", "ns"},
	{"wire.resp_codec_ns.mget8", "ns"},
	{"wire.codec_allocs", "count"},
	{"store.get_ns", "ns"},
	{"store.put_ns", "ns"},
	{"store.remove_ns", "ns"},
	{"store.mget8_ns", "ns"},
	{"store.mput8_ns", "ns"},
	{"store.cam_ns", "ns"},
	{"store.add_ns", "ns"},
	{"store.madd8_ns", "ns"},
	{"store.add_boosted_ns", "ns"},
	{"store.get_allocs", "count"},
	{"store.put_allocs", "count"},
	{"store.mput8_allocs", "count"},
	{"store.put_wal_ns", "ns"},
	{"store.mput8_wal_ns", "ns"},
	{"store.cam_wal_ns", "ns"},
	{"store.boosted_share", "ratio"},
	{"wal.append_ns", "ns"},
	{"wal.sync_ns", "ns"},
	{"wal.group_sync_ns.w2", "ns"},
	{"wal.syncs_per_append", "ratio"},
	{"wal.bytes_per_record", "bytes"},
	{"wal.bytes_per_op", "bytes"},
	{"wal.recover_ns_per_record", "ns"},
	{"eec.map_get_ns", "ns"},
	{"eec.map_put_ns", "ns"},
	{"eec.map_remove_ns", "ns"},
	{"eec.list_contains_ns", "ns"},
	{"eec.list_bulk_ns", "ns"},
	{"core.txn_ro_ns", "ns"},
	{"core.txn_w1_ns", "ns"},
	{"core.nested_commit_ns", "ns"},
	{"core.txn_allocs", "count"},
	{"core.abort_ratio", "ratio"},
	{"mvar.read_consistent_ns", "ns"},
	{"mvar.lock_cycle_ns", "ns"},
	{"specexec.indep16_ns_per_txn", "ns"},
	{"specexec.conflict16_ns_per_txn", "ns"},
	{"specexec.reexec_ratio", "ratio"},
	{"trace.overhead_ratio", "ratio"},
}

// metrics collects named values; set panics on a name the benchmark does
// not declare, so a misspelt metric fails the first run, not a review.
type metrics map[string]metric

func (m metrics) set(units [][2]string, name string, v float64) {
	for _, u := range units {
		if u[0] == name {
			m[name] = metric{Value: v, Unit: u[1]}
			return
		}
	}
	panic("bench: undeclared metric " + name)
}

// unitsOf lists the metrics a run reports: the end-to-end ones untraced,
// the per-layer ones traced.
func unitsOf(traced bool) [][2]string {
	if traced {
		return perLayerUnits
	}
	return endToEndUnits
}

// missing names a metric the run should have reported and did not.
func (m metrics) missing(traced bool) (string, bool) {
	for _, u := range unitsOf(traced) {
		if _, ok := m[u[0]]; !ok {
			return u[0], true
		}
	}
	return "", false
}
