// Tests for the commutative hot-key path: Add/MAdd semantics on every
// engine and boost mode, demotion by absolute operations, the
// escalation tracker, concurrent exact-sum conservation (the property
// the counter-fanin scenario checks end-to-end), MGet's all-or-nothing
// view of composed delta batches, and WAL replay including a snapshot
// cut taken while overlays are pending.
package store

import (
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"oestm/internal/stm"
	"oestm/internal/wal"
)

func init() {
	// The concurrency tests need real interleaving even on a single-core
	// runner (same precedent as internal/wal's tests).
	if runtime.GOMAXPROCS(0) < 8 {
		runtime.GOMAXPROCS(8)
	}
}

func boostModes() []BoostMode { return []BoostMode{BoostOff, BoostAuto, BoostOn} }

func TestParseBoostMode(t *testing.T) {
	for _, c := range []struct {
		in   string
		want BoostMode
	}{{"", BoostAuto}, {"auto", BoostAuto}, {"off", BoostOff}, {"on", BoostOn}} {
		got, err := ParseBoostMode(c.in)
		if err != nil || got != c.want {
			t.Errorf("ParseBoostMode(%q) = %v, %v", c.in, got, err)
		}
		if c.in != "" && got.String() != c.in {
			t.Errorf("String() = %q, want %q", got.String(), c.in)
		}
	}
	if _, err := ParseBoostMode("sideways"); err == nil {
		t.Error("ParseBoostMode accepted garbage")
	}
}

// TestAddConformance runs the delta-operation semantics on every engine
// and every boost mode: the observable behaviour must be identical —
// only the execution path differs.
func TestAddConformance(t *testing.T) {
	for _, eng := range engines() {
		for _, mode := range boostModes() {
			t.Run(eng.name+"/"+mode.String(), func(t *testing.T) {
				s := New(Config{Shards: 8, Boost: mode})
				f := s.NewFrame(stm.NewThread(eng.newi()))

				if !f.Add(1, 5) {
					t.Fatal("Add did not commit")
				}
				if v, ok := f.Get(1); !ok || v != 5 {
					t.Fatalf("Get(1) = %d,%v want 5,true (add must create)", v, ok)
				}
				f.Add(1, -2)
				if v, _ := f.Get(1); v != 3 {
					t.Fatalf("Get(1) = %d want 3", v)
				}

				vals := make([]int64, 2)
				oks := make([]bool, 2)
				if !f.MGet([]int64{1, 2}, vals, oks) {
					t.Fatal("MGet did not commit")
				}
				if vals[0] != 3 || !oks[0] || oks[1] {
					t.Fatalf("MGet = %v %v want [3 _] [true false]", vals, oks)
				}

				// An absolute put wins over the counter (demotes it first).
				if !f.Put(1, 100) {
					t.Fatal("Put over an existing counter must report it existed")
				}
				if v, _ := f.Get(1); v != 100 {
					t.Fatalf("after Put, Get(1) = %d want 100", v)
				}
				f.Add(1, 1)
				if v, _ := f.Get(1); v != 101 {
					t.Fatalf("Get(1) = %d want 101", v)
				}
				// Remove clears base and overlay together.
				if v, ok := f.Remove(1); !ok || v != 101 {
					t.Fatalf("Remove(1) = %d,%v want 101,true", v, ok)
				}
				if _, ok := f.Get(1); ok {
					t.Fatal("Get after Remove reported a value")
				}
				f.Add(1, 7)
				if v, ok := f.Get(1); !ok || v != 7 {
					t.Fatalf("re-created counter = %d,%v want 7,true", v, ok)
				}

				// Composed deltas, including a zero-sum transfer and
				// duplicate keys in one batch.
				if !f.MAdd([]int64{2, 3}, []int64{10, -4}) {
					t.Fatal("MAdd did not commit")
				}
				if v, _ := f.Get(2); v != 10 {
					t.Fatalf("Get(2) = %d want 10", v)
				}
				if v, _ := f.Get(3); v != -4 {
					t.Fatalf("Get(3) = %d want -4", v)
				}
				f.MAdd([]int64{2, 3}, []int64{-5, 5})
				if v, _ := f.Get(2); v != 5 {
					t.Fatalf("after transfer Get(2) = %d want 5", v)
				}
				if v, _ := f.Get(3); v != 1 {
					t.Fatalf("after transfer Get(3) = %d want 1", v)
				}
				f.MAdd([]int64{7, 7}, []int64{1, 2})
				if v, _ := f.Get(7); v != 3 {
					t.Fatalf("duplicate-key MAdd: Get(7) = %d want 3", v)
				}
				if f.MAdd(nil, nil) != true {
					t.Fatal("empty MAdd must commit")
				}

				// CompareAndMove sees and moves the counter's full value.
				f.Add(4, 9)
				if !f.CompareAndMove(4, 5, 9) {
					t.Fatal("CompareAndMove refused a matching counter")
				}
				if _, ok := f.Get(4); ok {
					t.Fatal("moved-from counter still present")
				}
				if v, _ := f.Get(5); v != 9 {
					t.Fatalf("moved-to = %d want 9", v)
				}

				// MPut overwrites a counter absolutely.
				f.Add(6, 1)
				f.MPut([]int64{6}, []int64{42})
				if v, _ := f.Get(6); v != 42 {
					t.Fatalf("after MPut Get(6) = %d want 42", v)
				}

				bs := s.BoostStats()
				if bs.Adds == 0 {
					t.Fatal("adds counter never moved")
				}
				if mode == BoostOn {
					if bs.BoostedOps == 0 || bs.Promotions == 0 || bs.Demotions == 0 {
						t.Fatalf("boost-on stats = %+v, want promotions, boosted ops and demotions", bs)
					}
				}
				if mode == BoostOff && bs.BoostedOps != 0 {
					t.Fatalf("boost-off ran %d boosted ops", bs.BoostedOps)
				}
			})
		}
	}
}

// TestTrackerEscalation drives the decayed abort counters directly: an
// add-only key promotes once its abort count crosses the threshold, and
// an absolute operation on the key resets its history.
func TestTrackerEscalation(t *testing.T) {
	s := New(Config{Shards: 2, Boost: BoostAuto})
	key := int64(77)
	for i := 0; i < promoteAbortThreshold-1; i++ {
		if s.trackAdd(key, 1) {
			t.Fatalf("promoted after %d aborts, threshold is %d", i+1, promoteAbortThreshold)
		}
	}
	if !s.trackAdd(key, 1) {
		t.Fatal("did not promote at the threshold")
	}
	// Threshold crossing resets the slot: the key starts over.
	if s.trackAdd(key, 1) {
		t.Fatal("promoted again immediately after reset")
	}
	// An absolute op wipes the history.
	for i := 0; i < promoteAbortThreshold-1; i++ {
		s.trackAdd(key, 1)
	}
	s.trackAbsolute(key)
	if s.trackAdd(key, 1) {
		t.Fatal("promoted despite an absolute operation resetting the slot")
	}
	// Abort-free adds never promote, no matter how many.
	quiet := int64(12345)
	for i := 0; i < 4*trackDecayAt; i++ {
		if s.trackAdd(quiet, 0) {
			t.Fatal("promoted an abort-free key")
		}
	}
	// A pathological abort count is clamped, not truncated: 2^32 aborts
	// would wrap the uint32 accumulator to zero and mask the promotion.
	s2 := New(Config{Shards: 2, Boost: BoostAuto})
	if !s2.trackAdd(key, 1<<32) {
		t.Fatal("2^32 aborts wrapped the accumulator instead of promoting")
	}
}

// TestAutoPromotionRoutesBoosted checks the promotion hand-off: once the
// tracker (here stood in for by promote) escalates a key, subsequent
// adds take the boosted path and an absolute write demotes it again.
func TestAutoPromotionRoutesBoosted(t *testing.T) {
	for _, eng := range engines() {
		t.Run(eng.name, func(t *testing.T) {
			s := New(Config{Shards: 4, Boost: BoostAuto})
			f := s.NewFrame(stm.NewThread(eng.newi()))
			f.Add(9, 2) // read-modify-write: nothing hot yet
			if bs := s.BoostStats(); bs.BoostedOps != 0 {
				t.Fatalf("unpromoted add ran boosted: %+v", bs)
			}
			s.promote(9)
			f.Add(9, 3)
			if bs := s.BoostStats(); bs.BoostedOps != 1 {
				t.Fatalf("promoted add did not run boosted: %+v", bs)
			}
			if v, _ := f.Get(9); v != 5 {
				t.Fatalf("Get(9) = %d want 5", v)
			}
			f.Put(9, 50)
			if bs := s.BoostStats(); bs.Demotions != 1 {
				t.Fatalf("absolute write did not demote: %+v", bs)
			}
			if v, _ := f.Get(9); v != 50 {
				t.Fatalf("Get(9) = %d want 50", v)
			}
		})
	}
}

// TestUnsoundForcesBoostOff pins that the unsound ablation never takes
// the boosted path — its entire point is split transactions.
func TestUnsoundForcesBoostOff(t *testing.T) {
	s := New(Config{Shards: 2, Unsound: true, Boost: BoostOn})
	if s.BoostMode() != BoostOff {
		t.Fatalf("unsound store boost mode = %v, want off", s.BoostMode())
	}
	f := s.NewFrame(stm.NewThread(engines()[0].newi()))
	f.Add(1, 4)
	f.MAdd([]int64{1, 2}, []int64{1, 1})
	if v, _ := f.Get(1); v != 5 {
		t.Fatalf("Get(1) = %d want 5", v)
	}
	if bs := s.BoostStats(); bs.BoostedOps != 0 || bs.Promotions != 0 {
		t.Fatalf("unsound store boosted: %+v", bs)
	}
}

// TestNetZeroCounterPresence pins the presence semantics of counters
// whose deltas cancel: an add "creates from zero", so a counter must
// read as present (value 0) even when its sums net to zero — on every
// boost mode identically (the RMW execution materializes a base entry;
// the boosted overlay and the folds must agree), through Get, MGet,
// demotion, Remove and CompareAndMove alike.
func TestNetZeroCounterPresence(t *testing.T) {
	for _, eng := range engines() {
		for _, mode := range boostModes() {
			t.Run(eng.name+"/"+mode.String(), func(t *testing.T) {
				s := New(Config{Shards: 4, Boost: mode})
				f := s.NewFrame(stm.NewThread(eng.newi()))

				f.Add(1, 5)
				f.Add(1, -5)
				if v, ok := f.Get(1); !ok || v != 0 {
					t.Fatalf("net-zero counter Get = %d,%v want 0,true", v, ok)
				}
				vals := make([]int64, 1)
				oks := make([]bool, 1)
				f.MGet([]int64{1}, vals, oks)
				if !oks[0] || vals[0] != 0 {
					t.Fatalf("net-zero counter MGet = %d,%v want 0,true", vals[0], oks[0])
				}
				if v, ok := f.Remove(1); !ok || v != 0 {
					t.Fatalf("net-zero counter Remove = %d,%v want 0,true", v, ok)
				}
				if _, ok := f.Get(1); ok {
					t.Fatal("counter present after Remove")
				}

				// A zero-sum MAdd pair cancelled back to zero stays present.
				f.MAdd([]int64{2, 3}, []int64{4, -4})
				f.MAdd([]int64{2, 3}, []int64{-4, 4})
				for _, k := range []int64{2, 3} {
					if v, ok := f.Get(k); !ok || v != 0 {
						t.Fatalf("cancelled MAdd key %d = %d,%v want 0,true", k, v, ok)
					}
				}

				// Demotion folds presence into the base: CompareAndMove
				// demotes first, then must see the counter's value 0.
				f.Add(4, 9)
				f.Add(4, -9)
				if !f.CompareAndMove(4, 5, 0) {
					t.Fatal("CompareAndMove refused a net-zero counter at expect 0")
				}
				if _, ok := f.Get(4); ok {
					t.Fatal("moved-from counter still present")
				}
				if v, ok := f.Get(5); !ok || v != 0 {
					t.Fatalf("moved-to = %d,%v want 0,true", v, ok)
				}
			})
		}
	}
}

// composingEngines is the engine list minus the estm ablation: estm's
// non-outheriting nested commits make a concurrent composed
// read-modify-write add duplicate its pieces across parent retries —
// the very tear the ablation exists to demonstrate — so the exact-sum
// properties below hold only on the composing engines (the same set the
// counter-fanin scenario checks end-to-end).
func composingEngines() []struct {
	name string
	newi func() stm.TM
} {
	var out []struct {
		name string
		newi func() stm.TM
	}
	for _, eng := range engines() {
		if eng.name != "estm" {
			out = append(out, eng)
		}
	}
	return out
}

// TestConcurrentAddsExactSum is the conservation property under real
// concurrency: every delta lands exactly once, whether it travelled the
// boosted overlay, a demotion fold, or a Remove that captured the
// counter mid-flight.
func TestConcurrentAddsExactSum(t *testing.T) {
	for _, eng := range composingEngines() {
		for _, mode := range []BoostMode{BoostOff, BoostOn} {
			t.Run(eng.name+"/"+mode.String(), func(t *testing.T) {
				tm := eng.newi()
				s := New(Config{Shards: 4, Boost: mode})
				const workers, perWorker = 6, 300
				key := int64(42)
				var adders sync.WaitGroup
				for w := 0; w < workers; w++ {
					adders.Add(1)
					go func() {
						defer adders.Done()
						f := s.NewFrame(stm.NewThread(tm))
						for i := 0; i < perWorker; i++ {
							if !f.Add(key, 1) {
								t.Error("Add did not commit")
								return
							}
						}
					}()
				}
				// One goroutine repeatedly harvests the counter: Remove
				// must capture base + overlay atomically, so harvested
				// plus remainder stays exact.
				var harvested int64
				done := make(chan struct{})
				var harvester sync.WaitGroup
				harvester.Add(1)
				go func() {
					defer harvester.Done()
					f := s.NewFrame(stm.NewThread(tm))
					for {
						select {
						case <-done:
							return
						default:
						}
						if v, ok := f.Remove(key); ok {
							harvested += v
						}
						runtime.Gosched()
					}
				}()
				adders.Wait()
				close(done)
				harvester.Wait()
				f := s.NewFrame(stm.NewThread(tm))
				rest, _ := f.Get(key)
				if got := harvested + rest; got != workers*perWorker {
					t.Fatalf("sum = %d (harvested %d + rest %d), want %d",
						got, harvested, rest, workers*perWorker)
				}
			})
		}
	}
}

// TestMAddZeroSumInvariant runs zero-sum transfers between hot counters
// against a concurrent MGet auditor: the audited total must never move —
// the boosted batch is all-or-nothing to a locked reader.
func TestMAddZeroSumInvariant(t *testing.T) {
	for _, eng := range composingEngines() {
		t.Run(eng.name, func(t *testing.T) {
			tm := eng.newi()
			s := New(Config{Shards: 4, Boost: BoostOn})
			keys := []int64{10, 20, 30, 40}
			const seed = 100
			setup := s.NewFrame(stm.NewThread(tm))
			for _, k := range keys {
				setup.Add(k, seed)
			}
			want := int64(seed * len(keys))

			var writers sync.WaitGroup
			stop := make(chan struct{})
			for w := 0; w < 4; w++ {
				writers.Add(1)
				go func(w int) {
					defer writers.Done()
					f := s.NewFrame(stm.NewThread(tm))
					rng := rand.New(rand.NewSource(int64(w)))
					pair := make([]int64, 2)
					delta := make([]int64, 2)
					for i := 0; i < 400; i++ {
						a := rng.Intn(len(keys))
						b := (a + 1 + rng.Intn(len(keys)-1)) % len(keys)
						d := int64(rng.Intn(9) + 1)
						pair[0], pair[1] = keys[a], keys[b]
						delta[0], delta[1] = d, -d
						if !f.MAdd(pair, delta) {
							t.Error("MAdd did not commit")
							return
						}
					}
				}(w)
			}
			var auditor sync.WaitGroup
			auditor.Add(1)
			go func() {
				defer auditor.Done()
				f := s.NewFrame(stm.NewThread(tm))
				vals := make([]int64, len(keys))
				oks := make([]bool, len(keys))
				for {
					select {
					case <-stop:
						return
					default:
					}
					if !f.MGet(keys, vals, oks) {
						t.Error("MGet did not commit")
						return
					}
					var sum int64
					for i, v := range vals {
						if !oks[i] {
							t.Errorf("audited counter %d absent", keys[i])
							return
						}
						sum += v
					}
					if sum != want {
						t.Errorf("audit saw sum %d, want %d (torn MAdd)", sum, want)
						return
					}
					runtime.Gosched()
				}
			}()
			writers.Wait()
			close(stop)
			auditor.Wait()
			f := s.NewFrame(stm.NewThread(tm))
			var sum int64
			for _, k := range keys {
				v, ok := f.Get(k)
				if !ok {
					t.Fatalf("counter %d missing after run", k)
				}
				sum += v
			}
			if sum != want {
				t.Fatalf("final sum = %d, want %d", sum, want)
			}
		})
	}
}

// TestMGetPromotionRaceConsistentCut drives the window between MGet's
// hot-table scan and its lock acquisition: each round uses fresh keys
// that turn hot only when the writer's first MAdd promotes them, so the
// auditor keeps catching keys mid-promotion. A scan that saw one key of
// a zero-sum pair cold and the other hot must restart rather than fold
// only the hot side — otherwise it reads half of a completed transfer.
func TestMGetPromotionRaceConsistentCut(t *testing.T) {
	for _, eng := range composingEngines() {
		t.Run(eng.name, func(t *testing.T) {
			tm := eng.newi()
			s := New(Config{Shards: 4, Boost: BoostOn})
			setup := s.NewFrame(stm.NewThread(tm))
			audit := s.NewFrame(stm.NewThread(tm))
			vals := make([]int64, 2)
			oks := make([]bool, 2)
			const rounds, transfers = 150, 25
			for r := 0; r < rounds; r++ {
				a, b := int64(1000+2*r), int64(1001+2*r)
				setup.Put(a, 500)
				setup.Put(b, 500)
				done := make(chan struct{})
				go func() {
					defer close(done)
					f := s.NewFrame(stm.NewThread(tm))
					pair := []int64{a, b}
					delta := []int64{7, -7}
					for i := 0; i < transfers; i++ {
						if !f.MAdd(pair, delta) {
							t.Error("MAdd did not commit")
							return
						}
					}
				}()
				for stop := false; !stop; {
					select {
					case <-done:
						stop = true
					default:
					}
					if !audit.MGet([]int64{a, b}, vals, oks) {
						t.Fatal("MGet did not commit")
					}
					if sum := vals[0] + vals[1]; sum != 1000 {
						t.Fatalf("round %d: audit sum = %d, want 1000 (torn MAdd through a mid-promotion key)", r, sum)
					}
				}
			}
		})
	}
}

// TestAbsoluteWriteReplayEquivalence races boosted adders against one
// absolute write per key with a WAL attached, for each of the four
// absolute writers: the write folds and kills the key's counter while the
// adders keep re-promoting it, so the window between the fold and the
// write's own record is hit mid-stream, and each key sees no later write
// that could paper over a mis-ordered record. Whatever state each key
// settles into, replaying the log must reproduce it exactly — an add
// record slipping in front of the absolute record whose live effect it
// survived would make the replayed value diverge from the acked live
// one. Every case runs under a deadline: the writers take abstract locks
// and commit locks against a steady adder, and a lock-order spin must
// fail here rather than hang the suite.
func TestAbsoluteWriteReplayEquivalence(t *testing.T) {
	const big = int64(1) << 20
	mput := func(f *Frame, k, partner int64) bool {
		return f.MPut([]int64{k, partner}, []int64{big, 2 * big})
	}
	// The move needs the counter's current value, which the adders keep
	// changing: retry until one read-then-move pair lands between adds.
	cam := func(f *Frame, k, partner int64) bool {
		for try := 0; try < 2000; {
			v, ok := f.Get(k)
			if !ok {
				runtime.Gosched() // no adder has created the counter yet
				continue
			}
			if f.CompareAndMove(k, partner, v) {
				return true
			}
			try++
		}
		return false
	}
	cases := []struct {
		name       string
		twoShards  bool // the partner key lives on another shard
		hotPartner bool // adders hammer the partner key too
		write      func(f *Frame, k, partner int64) bool
	}{
		{"put", false, false, func(f *Frame, k, _ int64) bool { f.Put(k, big); return true }},
		{"remove", false, false, func(f *Frame, k, _ int64) bool { f.Remove(k); return true }},
		{"mput/one-shard", false, true, mput},
		{"mput/two-shards", true, true, mput},
		{"cam/one-shard", false, false, cam},
		{"cam/two-shards", true, false, cam},
	}
	for _, eng := range composingEngines() {
		for _, c := range cases {
			t.Run(eng.name+"/"+c.name, func(t *testing.T) {
				dir := t.TempDir()
				log, _, err := wal.Open(dir, wal.Options{Shards: 4})
				if err != nil {
					t.Fatal(err)
				}
				tm := eng.newi()
				s := New(Config{Shards: 4, WAL: log, Boost: BoostOn})
				const iters = 150
				var keys []int64
				var stop atomic.Bool
				finished := make(chan int)
				go func() {
					wrote := 0
					defer func() { finished <- wrote }()
					writer := s.NewFrame(stm.NewThread(tm))
					for i := 0; i < iters && !stop.Load(); i++ {
						k := int64(10000 + i)
						// A fresh partner per iteration (strided ranges never
						// overlap): a move refuses an occupied destination.
						partner := int64(1)<<32 + int64(i)*64
						for (s.ShardOf(partner) != s.ShardOf(k)) != c.twoShards {
							partner++
						}
						keys = append(keys, k, partner)
						done := make(chan struct{})
						var wg sync.WaitGroup
						for a := 0; a < 3; a++ {
							wg.Add(1)
							go func(a int) {
								defer wg.Done()
								f := s.NewFrame(stm.NewThread(tm))
								for n := 0; !stop.Load(); n++ {
									select {
									case <-done:
										return
									default:
									}
									target := k
									if c.hotPartner && (a+n)%2 == 1 {
										target = partner
									}
									if !f.Add(target, 1) {
										t.Error("Add did not commit")
										return
									}
								}
							}(a)
						}
						runtime.Gosched()
						if c.write(writer, k, partner) {
							wrote++
						}
						close(done)
						wg.Wait()
					}
				}()
				select {
				case wrote := <-finished:
					if wrote == 0 {
						t.Fatal("the absolute writer never landed a write")
					}
				case <-time.After(60 * time.Second):
					stop.Store(true)
					t.Fatal("deadline exceeded: an absolute writer is spinning against the adders")
				}

				type entry struct {
					v  int64
					ok bool
				}
				f := s.NewFrame(stm.NewThread(tm))
				live := map[int64]entry{}
				for _, k := range keys {
					v, ok := f.Get(k)
					live[k] = entry{v, ok}
				}
				if err := log.Close(); err != nil {
					t.Fatal(err)
				}
				rp, err := wal.Scan(dir)
				if err != nil {
					t.Fatal(err)
				}
				s2 := New(Config{Shards: 4})
				th2 := stm.NewThread(eng.newi())
				s2.Recover(th2, rp)
				f2 := s2.NewFrame(th2)
				for _, k := range keys {
					if v, ok := f2.Get(k); (entry{v, ok}) != live[k] {
						t.Fatalf("replayed Get(%d) = %d,%v; live state was %+v (acked add lost or duplicated by replay order)",
							k, v, ok, live[k])
					}
				}
			})
		}
	}
}

// TestAddWALReplay writes through every delta shape — boosted overlay
// adds, read-modify-write adds, composed MAdd intents, a demotion fold,
// an absolute overwrite and a remove — then replays the log into a
// fresh store and compares. A snapshot generation is cut while overlays
// are pending, so the fold-into-snapshot path is exercised too.
func TestAddWALReplay(t *testing.T) {
	for _, mode := range []BoostMode{BoostOff, BoostOn} {
		t.Run(mode.String(), func(t *testing.T) {
			dir := t.TempDir()
			log, rp, err := wal.Open(dir, wal.Options{Shards: 4})
			if err != nil {
				t.Fatal(err)
			}
			_ = rp // fresh directory: nothing to replay
			tm := engines()[0].newi()
			s := New(Config{Shards: 4, WAL: log, Boost: mode})
			th := stm.NewThread(tm)
			f := s.NewFrame(th)

			for i := int64(0); i < 20; i++ {
				f.Add(i%5, i)
			}
			f.MAdd([]int64{100, 200}, []int64{7, -7})
			// A net-zero counter: created by deltas that cancel, it must
			// stay present (at 0) through the snapshot cut and the replay.
			f.Add(4000, 6)
			f.Add(4000, -6)
			// Snapshot with overlays pending (boosted mode) or not (off).
			if err := s.Snapshot(th); err != nil {
				t.Fatal(err)
			}
			f.Add(2, 1000)
			f.Put(3, -1) // demotes and folds under boost, plain put otherwise
			f.Remove(4)
			f.MAdd([]int64{100, 200, 300}, []int64{1, 2, 3})
			if err := log.Close(); err != nil {
				t.Fatal(err)
			}

			if v, ok := f.Get(4000); !ok || v != 0 {
				t.Fatalf("live net-zero counter = %d,%v want 0,true", v, ok)
			}
			want := map[int64]int64{}
			for _, k := range []int64{0, 1, 2, 3, 100, 200, 300, 4000} {
				if v, ok := f.Get(k); ok {
					want[k] = v
				}
			}
			if _, ok := f.Get(4); ok {
				t.Fatal("Get(4) present after Remove")
			}

			rp2, err := wal.Scan(dir)
			if err != nil {
				t.Fatal(err)
			}
			s2 := New(Config{Shards: 4})
			th2 := stm.NewThread(engines()[0].newi())
			s2.Recover(th2, rp2)
			f2 := s2.NewFrame(th2)
			for k, v := range want {
				if got, ok := f2.Get(k); !ok || got != v {
					t.Fatalf("recovered Get(%d) = %d,%v want %d,true", k, got, ok, v)
				}
			}
			if v, ok := f2.Get(4); ok && v != 0 {
				t.Fatalf("recovered Get(4) = %d, want absent or zero", v)
			}

			// The snapshot-less replay must agree with the snapshot one.
			rp3, err := wal.ScanNoSnapshots(dir)
			if err != nil {
				t.Fatal(err)
			}
			s3 := New(Config{Shards: 4})
			th3 := stm.NewThread(engines()[0].newi())
			s3.Recover(th3, rp3)
			f3 := s3.NewFrame(th3)
			for k, v := range want {
				if got, ok := f3.Get(k); !ok || got != v {
					t.Fatalf("full replay Get(%d) = %d,%v want %d,true", k, got, ok, v)
				}
			}
		})
	}
}
