// Conformance tests for the sharded store's request path, in the style of
// the engine conformance suite: the same semantic checks run against
// every engine, and AllocsPerRun pins that the steady-state request path
// allocates only per-request protocol buffers (owned by the caller),
// never per-transaction frames.
package store

import (
	"math"
	"testing"

	"oestm/internal/core"
	"oestm/internal/lsa"
	"oestm/internal/stm"
	"oestm/internal/swisstm"
	"oestm/internal/tl2"
)

// engines is every STM engine, including the non-outheriting ablation.
func engines() []struct {
	name string
	newi func() stm.TM
} {
	return []struct {
		name string
		newi func() stm.TM
	}{
		{"oestm", func() stm.TM { return core.New() }},
		{"estm", func() stm.TM { return core.NewWithoutOutheritance() }},
		{"tl2", func() stm.TM { return tl2.New() }},
		{"lsa", func() stm.TM { return lsa.New() }},
		{"swisstm", func() stm.TM { return swisstm.New() }},
	}
}

func TestNewValidatesShards(t *testing.T) {
	if got := New(Config{}).Shards(); got != DefaultShards {
		t.Fatalf("default shards = %d, want %d", got, DefaultShards)
	}
	for _, n := range []int{1, 2, 8, 64} {
		if got := New(Config{Shards: n}).Shards(); got != n {
			t.Fatalf("shards = %d, want %d", got, n)
		}
	}
	for _, n := range []int{-1, 3, 6, 100} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(Shards: %d) must panic", n)
				}
			}()
			New(Config{Shards: n})
		}()
	}
}

func TestShardOfSpreadsAndStaysInRange(t *testing.T) {
	s := New(Config{Shards: 8})
	hit := make([]int, 8)
	for k := int64(-5000); k < 5000; k++ {
		i := s.ShardOf(k)
		if i != s.ShardOf(k) {
			t.Fatalf("ShardOf(%d) not deterministic", k)
		}
		if i < 0 || i >= 8 {
			t.Fatalf("ShardOf(%d) = %d out of range", k, i)
		}
		hit[i]++
	}
	for i, n := range hit {
		if n == 0 {
			t.Fatalf("shard %d never hit over 10k sequential keys", i)
		}
	}
	one := New(Config{Shards: 1})
	if one.ShardOf(123) != 0 || one.ShardOf(-9) != 0 {
		t.Fatal("single-shard store must map every key to shard 0")
	}
}

func TestValidKey(t *testing.T) {
	for _, k := range []int64{0, 1, -1, 1 << 40, math.MinInt64 + 1, math.MaxInt64 - 1} {
		if !ValidKey(k) {
			t.Errorf("ValidKey(%d) = false", k)
		}
	}
	if ValidKey(math.MinInt64) || ValidKey(math.MaxInt64) {
		t.Error("sentinel keys must be invalid")
	}
}

// TestStoreConformance runs the semantic checks on every engine:
// elementary single-shard operations, the MGet snapshot, MPut, and the
// CompareAndMove state machine (missing source, wrong expect, occupied
// destination, cross-shard success).
func TestStoreConformance(t *testing.T) {
	for _, eng := range engines() {
		t.Run(eng.name, func(t *testing.T) {
			tm := eng.newi()
			s := New(Config{Shards: 8})
			f := s.NewFrame(stm.NewThread(tm))

			if _, ok := f.Get(10); ok {
				t.Fatal("Get on empty store reported a value")
			}
			if f.Put(10, 500) {
				t.Fatal("first Put reported an existing key")
			}
			if v, ok := f.Get(10); !ok || v != 500 {
				t.Fatalf("Get(10) = %d,%v want 500,true", v, ok)
			}
			if !f.Put(10, 600) {
				t.Fatal("overwrite Put missed the existing key")
			}
			if v, ok := f.Remove(10); !ok || v != 600 {
				t.Fatalf("Remove(10) = %d,%v want 600,true", v, ok)
			}
			if _, ok := f.Remove(10); ok {
				t.Fatal("second Remove reported a value")
			}

			keys := []int64{-3, 7, 1 << 33, 42}
			vals := []int64{100, 200, 300, 400}
			f.MPut(keys, vals)
			probe := append(append([]int64{}, keys...), 999999) // last key absent
			outV := make([]int64, len(probe))
			outOK := make([]bool, len(probe))
			f.MGet(probe, outV, outOK)
			for i := range keys {
				if !outOK[i] || outV[i] != vals[i] {
					t.Fatalf("MGet[%d] = %d,%v want %d,true", i, outV[i], outOK[i], vals[i])
				}
			}
			if outOK[len(keys)] {
				t.Fatal("MGet reported a value for an absent key")
			}

			// CompareAndMove state machine.
			if f.CompareAndMove(7, 7, 200) {
				t.Fatal("from == to must not move")
			}
			if f.CompareAndMove(12345, 8, 1) {
				t.Fatal("missing source must not move")
			}
			if f.CompareAndMove(7, 8, 999) {
				t.Fatal("wrong expect must not move")
			}
			if f.CompareAndMove(7, 42, 200) {
				t.Fatal("occupied destination must not move")
			}
			// Pick a destination on a different shard than 7.
			dst := int64(1000)
			for s.ShardOf(dst) == s.ShardOf(7) {
				dst++
			}
			if !f.CompareAndMove(7, dst, 200) {
				t.Fatal("valid cross-shard move refused")
			}
			if _, ok := f.Get(7); ok {
				t.Fatal("source still present after move")
			}
			if v, ok := f.Get(dst); !ok || v != 200 {
				t.Fatalf("destination = %d,%v want 200,true", v, ok)
			}
		})
	}
}

// TestStoreAllocsSteadyState pins the allocation contract of the request
// path on every engine: once frames are warm, hit/miss Gets, missed
// Removes, refused CompareAndMoves, and whole MGet snapshots allocate
// nothing — no per-transaction frames, no per-composition closures, no
// nested-begin boxing (stm.FlatChildOn) — and neither do overwriting
// Puts, MPuts and Adds: values live unboxed in the shard maps' value
// words, so no stored value allocates, however wide or negative.
// (Inserting Puts and successful moves allocate the skip-list nodes they
// create.)
func TestStoreAllocsSteadyState(t *testing.T) {
	for _, eng := range engines() {
		t.Run(eng.name, func(t *testing.T) {
			tm := eng.newi()
			s := New(Config{Shards: 8})
			f := s.NewFrame(stm.NewThread(tm))
			keys := make([]int64, 16)
			vals := make([]int64, 16)
			oks := make([]bool, 16)
			wide := make([]int64, 8)
			for i := range keys {
				keys[i] = int64(i * 37)
				f.Put(keys[i], int64(i%200))
			}
			for i := range wide {
				wide[i] = int64(i-4) << 40
			}
			cases := []struct {
				name string
				want float64
				op   func()
			}{
				{"get-hit", 0, func() { f.Get(keys[3]) }},
				{"get-miss", 0, func() { f.Get(777777) }},
				{"put-overwrite", 0, func() { f.Put(keys[5], 99) }},
				{"put-overwrite-wide", 0, func() { f.Put(keys[5], 1<<40) }},
				{"put-overwrite-negative", 0, func() { f.Put(keys[5], -5) }},
				{"remove-miss", 0, func() { f.Remove(777777) }},
				{"cam-wrong-expect", 0, func() { f.CompareAndMove(keys[2], 777777, 251) }},
				{"cam-occupied", 0, func() { f.CompareAndMove(keys[2], keys[4], int64(2%200)) }},
				{"mget", 0, func() { f.MGet(keys, vals, oks) }},
				{"mput-overwrite-wide", 0, func() { f.MPut(keys[:8], wide) }},
				{"add-wide", 0, func() { f.Add(keys[6], -1<<40) }},
			}
			for _, c := range cases {
				c.op() // warm pooled transaction and operation frames
				if allocs := testing.AllocsPerRun(100, c.op); allocs != c.want {
					t.Errorf("%s: %v allocs/op, want %v", c.name, allocs, c.want)
				}
			}
		})
	}
}
