// Serving-layer tests for the commutative hot-key path: the Add/MAdd
// opcodes over a real socket against every boost mode — plus the
// allocation pins of the boosted fast path.
package server

import (
	"bytes"
	"math/rand/v2"
	"runtime"
	"testing"

	"oestm/internal/core"
	"oestm/internal/stm"
	"oestm/internal/store"
	"oestm/internal/wire"
)

// TestAddRoundTripModes exercises Add/MAdd over the wire for every
// engine in every boost mode: sums must land exactly,
// reads must see them, and the stats payload must count the adds.
func TestAddRoundTripModes(t *testing.T) {
	type mode struct {
		name string
		cfg  func(Config) Config
	}
	modes := []mode{
		{"conn-off", func(c Config) Config { c.Boost = store.BoostOff; return c }},
		{"conn-auto", func(c Config) Config { c.Boost = store.BoostAuto; return c }},
		{"conn-on", func(c Config) Config { c.Boost = store.BoostOn; return c }},
	}
	for _, eng := range engines() {
		for _, m := range modes {
			t.Run(eng.name+"/"+m.name, func(t *testing.T) {
				s := startServer(t, m.cfg(Config{Engine: eng.name, NewTM: eng.newi, Shards: 8}))
				c := dial(t, s)

				// Create-from-zero, accumulate, go negative.
				for i := 0; i < 10; i++ {
					if err := c.Add(7, 3); err != nil {
						t.Fatal(err)
					}
				}
				if err := c.Add(7, -5); err != nil {
					t.Fatal(err)
				}
				if v, ok, err := c.Get(7); err != nil || !ok || v != 25 {
					t.Fatalf("Get(7) = %d,%v,%v want 25,true,nil", v, ok, err)
				}

				// Cross-shard MAdd composes atomically with existing state.
				if _, err := c.Put(100, 1000); err != nil {
					t.Fatal(err)
				}
				if err := c.MAdd([]int64{7, 100, 200}, []int64{5, -10, 2}); err != nil {
					t.Fatal(err)
				}
				vals, present, err := c.MGet([]int64{7, 100, 200})
				if err != nil {
					t.Fatal(err)
				}
				want := []int64{30, 990, 2}
				for i := range want {
					if !present[i] || vals[i] != want[i] {
						t.Fatalf("MGet[%d] = %d,%v want %d,true", i, vals[i], present[i], want[i])
					}
				}

				// Absolute ops override the counter state entirely.
				if _, err := c.Put(7, 1); err != nil {
					t.Fatal(err)
				}
				if err := c.Add(7, 1); err != nil {
					t.Fatal(err)
				}
				if v, ok, err := c.Get(7); err != nil || !ok || v != 2 {
					t.Fatalf("after Put+Add: Get(7) = %d,%v,%v want 2,true,nil", v, ok, err)
				}
				if _, _, err := c.Remove(7); err != nil {
					t.Fatal(err)
				}
				if _, ok, err := c.Get(7); err != nil || ok {
					t.Fatalf("after Remove: Get(7) present, want absent (err %v)", err)
				}

				var p wire.StatsPayload
				if err := c.Stats(&p); err != nil {
					t.Fatal(err)
				}
				if p.Adds != 15 { // 11 Add round trips, 1 MAdd of 3 deltas, 1 post-Put Add
					t.Errorf("stats adds = %d, want 15", p.Adds)
				}
				if m.name == "conn-on" && p.BoostedOps == 0 {
					t.Error("boost on: no boosted ops counted")
				}
				if m.name == "conn-off" && p.BoostedOps != 0 {
					t.Errorf("boost off: %d boosted ops counted", p.BoostedOps)
				}
			})
		}
	}
}

// addHeavyBody draws one request from an add-heavy hot-key mix. Deltas
// are strictly positive: a boosted overlay whose deltas sum to zero on a
// never-written key reads as absent (value and presence are base +
// overlay), while the read-modify-write path materializes a zero — the
// one deliberate semantic divergence of the split representation, so
// the equivalence stream stays off it.
func addHeavyBody(rng *rand.Rand, keys int64) []byte {
	key := func() int64 { return rng.Int64N(keys) }
	delta := func() int64 { return rng.Int64N(99) + 1 }
	var r wire.Request
	switch n := rng.IntN(100); {
	case n < 40:
		r = wire.Request{Op: wire.OpAdd, Key: key(), Val: delta()}
	case n < 55:
		r.Op = wire.OpMAdd
		for i := rng.IntN(3) + 2; i > 0; i-- {
			r.Keys = append(r.Keys, key())
			r.Vals = append(r.Vals, delta())
		}
	case n < 70:
		r = wire.Request{Op: wire.OpGet, Key: key()}
	case n < 78:
		r = wire.Request{Op: wire.OpPut, Key: key(), Val: delta()}
	case n < 85:
		r = wire.Request{Op: wire.OpRemove, Key: key()}
	case n < 95:
		r.Op = wire.OpMGet
		for i := rng.IntN(6) + 1; i > 0; i-- {
			r.Keys = append(r.Keys, key())
		}
	default:
		r = wire.Request{Op: wire.OpCompareAndMove, Key: key(), To: key(), Val: delta()}
	}
	return wire.AppendRequest(nil, &r)
}

// TestAddEquivalenceAcrossModes pins that the two executions of an add
// — boosted overlay and read-modify-write transaction — are
// observationally identical: seeded add-heavy bursts (with absolute ops
// interleaved, so promotion and demotion both churn) answered
// byte-identically by conn-off and conn-on servers, ending in identical
// store state.
func TestAddEquivalenceAcrossModes(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(8))
	const keys = 16
	eng := engines()[0]
	off := startServer(t, Config{Engine: eng.name, NewTM: eng.newi, Shards: 8, Boost: store.BoostOff})
	on := startServer(t, Config{Engine: eng.name, NewTM: eng.newi, Shards: 8, Boost: store.BoostOn})
	rng := rand.New(rand.NewPCG(0xadd, 0xb0057))
	ncA, brA := rawDial(t, off)
	ncB, brB := rawDial(t, on)
	for burst := 0; burst < 30; burst++ {
		n := rng.IntN(32) + 1
		bodies := make([][]byte, n)
		for i := range bodies {
			bodies[i] = addHeavyBody(rng, keys)
		}
		ra := sendBurst(t, ncA, brA, bodies)
		rb := sendBurst(t, ncB, brB, bodies)
		for i := range ra {
			if !bytes.Equal(ra[i], rb[i]) {
				t.Fatalf("burst %d response %d: conn-on diverges from conn-off:\n%x\n%x\nrequest %x",
					burst, i, rb[i], ra[i], bodies[i])
			}
		}
	}
	all := make([]int64, keys)
	for k := range all {
		all[k] = int64(k)
	}
	req := wire.AppendRequest(nil, &wire.Request{Op: wire.OpMGet, Keys: all})
	ea := sendBurst(t, ncA, brA, [][]byte{req})
	eb := sendBurst(t, ncB, brB, [][]byte{req})
	if !bytes.Equal(ea[0], eb[0]) {
		t.Fatalf("end states diverge:\nconn-off: %x\nconn-on:  %x", ea[0], eb[0])
	}
}

// TestEndToEndAllocsAdd pins the allocation budgets of the add path
// end-to-end, per execution: a whole client round trip allocates
// NOTHING, whether the boosted overlay mutates an int64 in place or the
// RMW control stores the sum into the key's value word. The wide deltas push the stored values far outside [0, 255] in
// both directions.
func TestEndToEndAllocsAdd(t *testing.T) {
	newTM := func() stm.TM { return core.New() }
	madd := []int64{1, 2, 3, 4}
	deltas := []int64{1, 1, 1, 1}
	wide := []int64{1 << 40, -1 << 40, -5, 3 << 50}
	adds := func(c *Client, mode string) []allocCase {
		return []allocCase{
			{"add-" + mode, 0, func() error { return c.Add(7, 1) }},
			{"add-" + mode + "-wide", 0, func() error { return c.Add(8, -1<<40) }},
			{"madd-" + mode, 0, func() error { return c.MAdd(madd, deltas) }},
			{"madd-" + mode + "-wide", 0, func() error { return c.MAdd(madd, wide) }},
		}
	}

	t.Run("conn-boosted", func(t *testing.T) {
		s := startServer(t, Config{Engine: "oestm", NewTM: newTM, Shards: 8, Boost: store.BoostOn})
		c := dial(t, s)
		pinAllocs(t, "", append(adds(c, "hot"),
			allocCase{"get-hot", 0, func() error { _, _, err := c.Get(7); return err }},
			allocCase{"mget-hot", 0, func() error { _, _, err := c.MGet(madd); return err }}))
	})
	t.Run("conn-rmw", func(t *testing.T) {
		s := startServer(t, Config{Engine: "oestm", NewTM: newTM, Shards: 8, Boost: store.BoostOff})
		pinAllocs(t, "", adds(dial(t, s), "rmw"))
	})
}
