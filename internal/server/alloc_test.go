// Allocation pins for the full serving path: one request over a real
// loopback socket — client encode, frame write, server read, decode,
// transaction, response encode, client decode — allocates nothing in the
// steady state, writes included: store values live unboxed in the shard
// maps' value words. Client and server run in one process here, so
// AllocsPerRun sees BOTH sides: these are end-to-end pins, the
// network-layer extension of the store conformance tests.
package server

import (
	"testing"

	"oestm/internal/core"
	"oestm/internal/stm"
	"oestm/internal/wire"
)

// allocCase is one pinned round trip: op must allocate exactly want
// times per call once warm.
type allocCase struct {
	name string
	want float64
	op   func() error
}

// pinAllocs warms every case once (buffers, frames, the WAL batch), then
// checks its steady-state count.
func pinAllocs(t *testing.T, mode string, cases []allocCase) {
	t.Helper()
	for _, tc := range cases {
		if err := tc.op(); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		got := testing.AllocsPerRun(200, func() {
			if err := tc.op(); err != nil {
				t.Fatal(err)
			}
		})
		if got != tc.want {
			t.Errorf("%s: %v allocs per round trip%s, want %v", tc.name, got, mode, tc.want)
		}
	}
}

// requestCases is the request surface every execution pins, over the
// preloaded keys. The overwrites store values on both sides of [0, 255]
// and of zero: an interface-boxed value cell would allocate once for the
// box and once more for a value the runtime cannot intern, and only the
// wide and negative values expose the second.
func requestCases(c *Client, keys []int64) []allocCase {
	wide := []int64{1 << 40, -5, -1 << 40, 7}
	// An 8-request burst of overwrites and reads over the preloaded keys:
	// one server turn, so with a WAL one group commit covers its puts.
	burst := make([]wire.Request, 8)
	for i := range burst {
		k := keys[i%len(keys)]
		burst[i] = wire.Request{Op: wire.OpPut, Key: k, Val: int64(i) << 40}
		if i%2 == 1 {
			burst[i] = wire.Request{Op: wire.OpGet, Key: k}
		}
	}
	resps := make([]wire.Response, len(burst))
	return []allocCase{
		{"ping", 0, func() error { return c.Ping() }},
		{"get-hit", 0, func() error { _, _, err := c.Get(1); return err }},
		{"get-miss", 0, func() error { _, _, err := c.Get(999); return err }},
		{"put-overwrite", 0, func() error { _, err := c.Put(1, 99); return err }},
		{"put-overwrite-wide", 0, func() error { _, err := c.Put(1, 1<<40); return err }},
		{"put-overwrite-negative", 0, func() error { _, err := c.Put(1, -5); return err }},
		{"remove-miss", 0, func() error { _, _, err := c.Remove(999); return err }},
		{"cam-refused", 0, func() error { _, err := c.CompareAndMove(1, 2, 12345); return err }},
		{"mget", 0, func() error { _, _, err := c.MGet(keys); return err }},
		{"mput-overwrite", 0, func() error { return c.MPut(keys, []int64{10, 20, 30, 40}) }},
		{"mput-overwrite-wide", 0, func() error { return c.MPut(keys, wide) }},
		{"pipeline-8", 0, func() error { return c.Pipeline(burst, resps) }},
	}
}

func TestEndToEndAllocs(t *testing.T) {
	s := startServer(t, Config{Engine: "oestm", NewTM: func() stm.TM { return core.New() }, Shards: 8})
	c := dial(t, s)
	keys := []int64{1, 2, 3, 4}
	if err := c.MPut(keys, []int64{10, 20, 30, 40}); err != nil {
		t.Fatal(err)
	}
	pinAllocs(t, "", requestCases(c, keys))
}

// TestEndToEndAllocsWAL re-pins the same budgets with durability on:
// the WAL path — commit-lock handoff, record append into the batch
// buffer, group-commit flush — must add zero allocations once the
// buffers have grown.
func TestEndToEndAllocsWAL(t *testing.T) {
	s := startServer(t, Config{
		Engine: "oestm", NewTM: func() stm.TM { return core.New() },
		Shards: 8, WALDir: t.TempDir(), Fsync: false,
	})
	c := dial(t, s)
	keys := []int64{1, 2, 3, 4}
	if err := c.MPut(keys, []int64{10, 20, 30, 40}); err != nil {
		t.Fatal(err)
	}
	pinAllocs(t, " with WAL", requestCases(c, keys))
}
