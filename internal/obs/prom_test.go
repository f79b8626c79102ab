package obs

import (
	"bufio"
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"oestm/internal/wire"
)

var update = flag.Bool("update", false, "rewrite golden files")

// goldenPayload builds a fully populated, deterministic payload: every
// counter distinct (so a series reading from the wrong field shows), a
// latency histogram with samples straddling several boundaries, and a
// per-shard block.
func goldenPayload() *wire.StatsPayload {
	p := &wire.StatsPayload{
		Engine: "oestm", CM: "adaptive", Shards: 4, Conns: 3,
		Commits: 10001, Aborts: 0,
		WALEnabled: true, WALAppends: 501, WALSyncs: 502, WALBytes: 50003,
		Adds: 701, BoostedOps: 702, HotPromotions: 703, HotDemotions: 704,
	}
	for i := range p.AbortsByCause {
		p.AbortsByCause[i] = uint64(11 * (i + 1))
		p.Aborts += p.AbortsByCause[i]
	}
	for i := range p.Ops {
		p.Ops[i].Count = uint64(1000 + i)
		for j := 0; j <= i; j++ {
			// Samples on both sides of several boundaries, including one
			// exactly at a power of two (2^10ns: must count as > the
			// le=1.024e-06 edge — the conversion's 2^k-1 edge semantics)
			// and one past the last finite boundary (only in +Inf).
			p.Ops[i].Hist.Record(time.Duration(200 + 100*j))
			p.Ops[i].Hist.Record(time.Duration(1) << 10)
			p.Ops[i].Hist.Record(time.Duration(j) * 37 * time.Microsecond)
		}
	}
	p.Ops[3].Hist.Record(3 * time.Second) // beyond 2^30ns
	p.Ops[3].Count++
	p.ShardStats = make([]wire.ShardTelemetry, p.Shards)
	for i := range p.ShardStats {
		p.ShardStats[i] = wire.ShardTelemetry{
			Ops: uint64(9000 + i), Aborts: uint64(10 * i),
			HotKeys: uint64(i % 2),
		}
	}
	return p
}

// TestMetricsGolden pins the payload-derived exposition byte for byte:
// series names, label sets and value formatting are a stable scrape API.
func TestMetricsGolden(t *testing.T) {
	var b bytes.Buffer
	renderPayload(&b, goldenPayload())
	path := filepath.Join("testdata", "metrics.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, b.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (regenerate with -update): %v", err)
	}
	if !bytes.Equal(b.Bytes(), want) {
		t.Fatalf("exposition drifted from golden (regenerate with -update if intended)\ngot:\n%s", b.String())
	}
}

// TestMetricsHistogramConsistency pins the le-conversion contract
// against the source histogram, independent of the golden bytes: per
// opcode, bucket counts are cumulative and non-decreasing, the +Inf
// bucket equals _count equals the histogram's count, the cumulative
// count at each boundary equals the exact number of source samples at
// or below the boundary's 2^k-1 edge, and _sum is the exact source sum.
func TestMetricsHistogramConsistency(t *testing.T) {
	p := goldenPayload()
	var b bytes.Buffer
	renderPayload(&b, p)

	type hseries struct {
		buckets []uint64
		inf     uint64
		sum     string
		count   uint64
	}
	series := map[string]*hseries{}
	get := func(op string) *hseries {
		s := series[op]
		if s == nil {
			s = &hseries{}
			series[op] = s
		}
		return s
	}
	sc := bufio.NewScanner(bytes.NewReader(b.Bytes()))
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "compose_request_duration_seconds_bucket{"):
			var le, op string
			if _, err := fmt.Sscanf(line, "compose_request_duration_seconds_bucket{le=%q,op=%q}", &le, &op); err != nil {
				t.Fatalf("unparseable bucket line %q: %v", line, err)
			}
			v, err := strconv.ParseUint(line[strings.LastIndexByte(line, ' ')+1:], 10, 64)
			if err != nil {
				t.Fatal(err)
			}
			if le == "+Inf" {
				get(op).inf = v
			} else {
				get(op).buckets = append(get(op).buckets, v)
			}
		case strings.HasPrefix(line, "compose_request_duration_seconds_sum{"):
			var op string
			fmt.Sscanf(line, "compose_request_duration_seconds_sum{op=%q}", &op)
			get(op).sum = line[strings.LastIndexByte(line, ' ')+1:]
		case strings.HasPrefix(line, "compose_request_duration_seconds_count{"):
			var op string
			fmt.Sscanf(line, "compose_request_duration_seconds_count{op=%q}", &op)
			v, _ := strconv.ParseUint(line[strings.LastIndexByte(line, ' ')+1:], 10, 64)
			get(op).count = v
		}
	}
	if len(series) != wire.NumOps {
		t.Fatalf("histogram series for %d ops, want %d", len(series), wire.NumOps)
	}
	for i := range p.Ops {
		op := wire.Op(i).String()
		s := series[op]
		h := &p.Ops[i].Hist
		if s == nil {
			t.Fatalf("no histogram series for op %q", op)
		}
		if want := promExpHi - promExpLo + 1; len(s.buckets) != want {
			t.Fatalf("%s: %d finite buckets, want %d", op, len(s.buckets), want)
		}
		var prev uint64
		for bi, v := range s.buckets {
			if v < prev {
				t.Fatalf("%s: bucket %d not cumulative: %d < %d", op, bi, v, prev)
			}
			prev = v
			// Exactness: cumulative count at boundary 2^k equals the
			// source samples <= 2^k-1.
			edge := uint64(1)<<(promExpLo+bi) - 1
			var exact uint64
			h.EachBucket(func(maxNS, n uint64) {
				if maxNS <= edge {
					exact += n
				}
			})
			if v != exact {
				t.Fatalf("%s: bucket le=2^%d = %d, source says %d", op, promExpLo+bi, v, exact)
			}
		}
		if s.inf != h.Count() || s.count != h.Count() {
			t.Fatalf("%s: +Inf=%d count=%d, histogram count=%d", op, s.inf, s.count, h.Count())
		}
		if s.inf < prev {
			t.Fatalf("%s: +Inf %d below last finite bucket %d", op, s.inf, prev)
		}
		if want := seconds(h.SumNS()); s.sum != want {
			t.Fatalf("%s: sum=%s, histogram sum=%s", op, s.sum, want)
		}
	}
}

// TestMetricsKeySeries spot-checks the non-histogram series an operator
// (and the CI smoke) greps for, including the per-shard block and the
// cause/engine abort labels.
func TestMetricsKeySeries(t *testing.T) {
	p := goldenPayload()
	var b bytes.Buffer
	WriteMetrics(&b, p, NewFlightRecorder())
	out := b.String()
	for _, want := range []string{
		`compose_server_info{cm="adaptive",engine="oestm"} 1`,
		`compose_aborts_total{cause="lock_busy",engine="oestm"} 33`,
		`compose_aborts_total{cause="commit_validation",engine="oestm"} 55`,
		"compose_commits_total 10001",
		"compose_wal_bytes_total 50003",
		"compose_adds_total 701",
		"compose_boosted_ops_total 702",
		"compose_hot_promotions_total 703",
		"compose_hot_demotions_total 704",
		`compose_shard_ops_total{shard="3"} 9003`,
		`compose_shard_aborts_total{shard="2"} 20`,
		`compose_shard_hot_keys{shard="1"} 1`,
		"compose_abort_events_recorded_total 0",
		"go_goroutines ",
		`compose_build_info{go_version=`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}
