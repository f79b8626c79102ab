package store

import (
	"maps"
	"math"
	"testing"

	"oestm/internal/stm"
	"oestm/internal/wal"
)

// valueDomain is the value-cell coverage set: the int64 extremes, the
// values around zero and a wide one. Values are never reserved — only
// keys are (the sentinels) — so each must round-trip unchanged.
var valueDomain = []int64{math.MinInt64, math.MaxInt64, -1, 0, 1 << 40}

// exerciseValues drives every Frame operation through each value of the
// domain on keys from base up, checking each result, and records in
// model what the operations leave behind.
func exerciseValues(t *testing.T, f *Frame, base int64, model map[int64]int64) {
	t.Helper()
	n := len(valueDomain)
	mkeys, akeys := make([]int64, n), make([]int64, n)
	for i, v := range valueDomain {
		k, moved, added := base+int64(i), base+100+int64(i), base+200+int64(i)
		mkeys[i], akeys[i] = base+300+int64(i), base+400+int64(i)
		if f.Put(k, v) {
			t.Fatalf("Put(%d, %d) on a fresh key reported it present", k, v)
		}
		if got, ok := f.Get(k); !ok || got != v {
			t.Fatalf("Get(%d) = %d,%v want %d,true", k, got, ok, v)
		}
		if !f.CompareAndMove(k, moved, v) {
			t.Fatalf("CompareAndMove(%d→%d, %d) refused", k, moved, v)
		}
		if got, ok := f.Get(moved); !ok || got != v {
			t.Fatalf("moved Get(%d) = %d,%v want %d,true", moved, got, ok, v)
		}
		if got, ok := f.Remove(moved); !ok || got != v {
			t.Fatalf("Remove(%d) = %d,%v want %d,true", moved, got, ok, v)
		}
		if f.Add(added, v); f.Err() != nil {
			t.Fatalf("Add(%d, %d) gave up", added, v)
		}
		if got, ok := f.Get(added); !ok || got != v {
			t.Fatalf("Add from absent: Get(%d) = %d,%v want %d,true", added, got, ok, v)
		}
		if f.Put(k, v) {
			t.Fatalf("Put(%d) after the move reported it present", k)
		}
		model[k], model[added] = v, v
	}
	f.MPut(mkeys, valueDomain)
	if f.MAdd(akeys, valueDomain); f.Err() != nil {
		t.Fatal("MPut/MAdd gave up")
	}
	vals, oks := make([]int64, 2*n), make([]bool, 2*n)
	f.MGet(append(mkeys, akeys...), vals, oks)
	for i := range vals {
		if want := valueDomain[i%n]; !oks[i] || vals[i] != want {
			t.Fatalf("MGet[%d] = %d,%v want %d,true", i, vals[i], oks[i], want)
		}
	}
	for i, v := range valueDomain {
		model[mkeys[i]], model[akeys[i]] = v, v
	}
}

// contents reads the whole keyspace, hot overlays folded in.
func contents(s *Store, th *stm.Thread) map[int64]int64 {
	out := map[int64]int64{}
	var entries []wal.Entry
	for i := range s.shards {
		entries = s.dumpShard(th, i, entries)
	}
	for _, e := range entries {
		out[e.Key] = e.Val
	}
	return out
}

// TestValueDomainFrame runs the value domain through every Frame
// operation on every engine.
func TestValueDomainFrame(t *testing.T) {
	for _, eng := range engines() {
		t.Run(eng.name, func(t *testing.T) {
			s := New(Config{Shards: 8})
			th := stm.NewThread(eng.newi())
			model := map[int64]int64{}
			exerciseValues(t, s.NewFrame(th), 0, model)
			if got := contents(s, th); !maps.Equal(got, model) {
				t.Fatalf("store holds %v, model %v", got, model)
			}
		})
	}
}

// TestValueDomainRecovery logs the value domain, cuts a snapshot
// generation halfway, overwrites across the cut, and recovers: the
// snapshot + suffix replay and the full log replay must both rebuild
// exactly the model — put, remove, delta and composition records carry
// every int64 unchanged, and so does a snapshot entry.
func TestValueDomainRecovery(t *testing.T) {
	for _, eng := range engines() {
		for _, mode := range []BoostMode{BoostOff, BoostOn} {
			t.Run(eng.name+"/"+mode.String(), func(t *testing.T) {
				dir := t.TempDir()
				log, _, err := wal.Open(dir, wal.Options{Shards: 4})
				if err != nil {
					t.Fatal(err)
				}
				s := New(Config{Shards: 4, WAL: log, Boost: mode})
				th := stm.NewThread(eng.newi())
				f := s.NewFrame(th)
				model := map[int64]int64{}
				exerciseValues(t, f, 0, model)
				if err := s.Snapshot(th); err != nil {
					t.Fatal(err)
				}
				exerciseValues(t, f, 1000, model)
				for i, v := range valueDomain { // overwrite pre-cut keys across the cut
					k := int64(i)
					f.Put(k, ^v)
					f.Add(200+k, v)
					model[k], model[200+k] = ^v, v+v
				}
				if err := log.Close(); err != nil {
					t.Fatal(err)
				}
				for _, scan := range []struct {
					name string
					fn   func(string) (*wal.Replay, error)
				}{{"snapshot+suffix", wal.Scan}, {"full", wal.ScanNoSnapshots}} {
					rp, err := scan.fn(dir)
					if err != nil {
						t.Fatal(err)
					}
					s2 := New(Config{Shards: 4})
					th2 := stm.NewThread(eng.newi())
					s2.Recover(th2, rp)
					if got := contents(s2, th2); !maps.Equal(got, model) {
						t.Fatalf("%s replay rebuilt %v, model %v", scan.name, got, model)
					}
				}
			})
		}
	}
}
