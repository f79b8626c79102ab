// Group-commit property tests: whatever interleaving N concurrent
// committers produce, replaying the log equals the sequential
// application of exactly the acknowledged operations in commit order —
// no reorder, no loss, no invention. The commit-lock protocol (append
// under every touched shard's lock, Sync after releasing them) is
// exercised the way the store drives it.
package wal

import (
	"bytes"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"testing"
)

func init() {
	// Oversubscribe a 1-CPU CI box so the concurrency tests get real
	// interleavings (same rationale as the engine conformance suites).
	if runtime.GOMAXPROCS(0) < 8 {
		runtime.GOMAXPROCS(8)
	}
}

// openLog opens a fresh (or existing) log in dir, failing the test on
// error.
func openLog(t *testing.T, dir string, shards int) (*Log, *Replay) {
	t.Helper()
	l, rp, err := Open(dir, Options{Shards: shards})
	if err != nil {
		t.Fatalf("Open(%s): %v", dir, err)
	}
	return l, rp
}

// apply folds one effect into a flat map (keys are globally unique in
// these tests, so shard routing cannot collide).
func apply(m map[int64]int64, e *Effect) {
	switch {
	case e.Remove:
		delete(m, e.Key)
	case e.Delta:
		m[e.Key] += e.Val
	default:
		m[e.Key] = e.Val
	}
}

// applied replays rp into one flat map.
func applied(rp *Replay) map[int64]int64 {
	m := map[int64]int64{}
	rp.Apply(func(e *Effect) { apply(m, e) })
	return m
}

// logPut runs the full single-shard commit protocol for one put.
func logPut(l *Log, shard int, key, val int64) error {
	l.Lock(shard)
	seq := l.AppendPut(shard, key, val)
	l.Unlock(shard)
	return l.Sync(shard, seq)
}

// logRemove is logPut's remove twin.
func logRemove(l *Log, shard int, key int64) error {
	return logComposed(l, Effect{Remove: true, Shard: shard, Key: key})
}

// logComposed runs the commit protocol for one mutation of any shape:
// every touched shard's commit lock in ascending order, one record,
// unlock, Sync.
func logComposed(l *Log, effects ...Effect) error {
	shards := touched(effects)
	for _, sh := range shards {
		l.Lock(sh)
	}
	seq := l.Append(effects)
	for i := len(shards) - 1; i >= 0; i-- {
		l.Unlock(shards[i])
	}
	return l.Sync(0, seq)
}

// touched returns the sorted unique shards of effects.
func touched(effects []Effect) []int {
	var shards []int
	for _, e := range effects {
		shards = append(shards, e.Shard)
	}
	slices.Sort(shards)
	return slices.Compact(shards)
}

// TestGroupCommitConcurrent is the core property: 8 committers hammer a
// 4-shard log with puts, removes and cross-shard compositions, each
// mirroring its operation into a per-shard model map under the same
// commit lock that orders the log. Replay must equal the model exactly.
func TestGroupCommitConcurrent(t *testing.T) {
	const (
		shards  = 4
		workers = 8
		opsEach = 400
	)
	dir := t.TempDir()
	l, _ := openLog(t, dir, shards)

	// model[s] is shard s's expected contents, guarded by commit lock s.
	model := make([]map[int64]int64, shards)
	for i := range model {
		model[i] = map[int64]int64{}
	}
	shardOf := func(key int64) int { return int(key % shards) }

	var wg sync.WaitGroup
	errs := make([]error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w) + 1))
			for i := 0; i < opsEach; i++ {
				key := int64(w*opsEach+i) * 7 // globally unique
				sh := shardOf(key)
				switch rng.Intn(4) {
				case 0, 1: // put
					l.Lock(sh)
					model[sh][key] = key + 1
					seq := l.AppendPut(sh, key, key+1)
					l.Unlock(sh)
					if err := l.Sync(sh, seq); err != nil {
						errs[w] = err
						return
					}
				case 2: // put then remove (so removes hit live keys)
					l.Lock(sh)
					seq := l.AppendPut(sh, key, 1)
					l.Unlock(sh)
					if err := l.Sync(sh, seq); err != nil {
						errs[w] = err
						return
					}
					l.Lock(sh)
					delete(model[sh], key)
					seq = l.Append([]Effect{{Remove: true, Shard: sh, Key: key}})
					l.Unlock(sh)
					if err := l.Sync(sh, seq); err != nil {
						errs[w] = err
						return
					}
				case 3: // cross-shard composition: two puts, distinct shards
					key2 := key + 1 // adjacent keys land on adjacent shards
					sh2 := shardOf(key2)
					effects := []Effect{
						{Shard: sh, Key: key, Val: 10},
						{Shard: sh2, Key: key2, Val: 20},
					}
					parts := touched(effects)
					for _, p := range parts {
						l.Lock(p)
					}
					model[sh][key] = 10
					model[sh2][key2] = 20
					seq := l.Append(effects)
					for pi := len(parts) - 1; pi >= 0; pi-- {
						l.Unlock(parts[pi])
					}
					if err := l.Sync(0, seq); err != nil {
						errs[w] = err
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	for w, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", w, err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	rp, err := Scan(dir)
	if err != nil {
		t.Fatalf("Scan: %v", err)
	}
	// No reorder, no torn tail: the file parses whole, with strictly
	// increasing sequences (Scan cuts on any violation), one record per
	// acknowledged operation.
	if rp.Torn != nil {
		t.Fatalf("torn after clean close: %v", rp.Torn)
	}
	if n, want := uint64(len(rp.Records)), l.Stats().Appends; n != want {
		t.Fatalf("scanned %d records, appended %d", n, want)
	}

	want := map[int64]int64{}
	for _, m := range model {
		for k, v := range m {
			want[k] = v
		}
	}
	got := applied(rp)
	if len(got) != len(want) {
		t.Fatalf("replay has %d keys, model %d", len(got), len(want))
	}
	for k, v := range want {
		if got[k] != v {
			t.Fatalf("key %d: replayed %d, model %d", k, got[k], v)
		}
	}
}

// logAdd runs the full single-shard commit protocol for one delta.
func logAdd(l *Log, shard int, key, delta int64) error {
	return logComposed(l, Effect{Delta: true, Shard: shard, Key: key, Val: delta})
}

// TestAddRecordsReplay pins the delta record's replay semantics: adds
// re-apply their delta over whatever earlier records left behind — in
// log order, interleaved with puts, removes and composed add-effects.
func TestAddRecordsReplay(t *testing.T) {
	const shards = 2
	dir := t.TempDir()
	l, _ := openLog(t, dir, shards)
	check := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	check(logAdd(l, 0, 1, 5))   // absent key: counter starts at the delta
	check(logPut(l, 0, 1, 100)) // absolute write overrides the sum
	check(logAdd(l, 0, 1, -1))  // delta over the put
	check(logAdd(l, 1, 2, 7))   //
	check(logRemove(l, 1, 2))   // remove clears the counter
	check(logAdd(l, 1, 2, 3))   // and a later add restarts from zero
	check(logComposed(l,
		Effect{Delta: true, Shard: 0, Key: 1, Val: 10},
		Effect{Delta: true, Shard: 1, Key: 2, Val: -2},
	))
	check(l.Close())

	rp, err := Scan(dir)
	check(err)
	got := applied(rp)
	want := map[int64]int64{1: 109, 2: 1}
	if len(got) != len(want) {
		t.Fatalf("replayed %v, want %v", got, want)
	}
	for k, v := range want {
		if got[k] != v {
			t.Fatalf("key %d: replayed %d, want %d (full: %v)", k, got[k], v, got)
		}
	}
}

// TestDeterministicBytes pins physical determinism: the same
// single-threaded operation sequence writes a byte-identical log file
// (group commit must not inject batching artifacts into the encoding).
func TestDeterministicBytes(t *testing.T) {
	const shards = 4
	run := func(dir string) {
		l, _ := openLog(t, dir, shards)
		for i := 0; i < 200; i++ {
			key := int64(i)
			sh := int(key % shards)
			if err := logPut(l, sh, key, key*3); err != nil {
				t.Fatalf("put: %v", err)
			}
			if i%5 == 0 {
				if err := logRemove(l, sh, key); err != nil {
					t.Fatalf("remove: %v", err)
				}
			}
			if i%7 == 0 {
				err := logComposed(l,
					Effect{Shard: 0, Key: 10_000 + key, Val: key},
					Effect{Shard: 1, Key: 20_001 + key, Val: key},
				)
				if err != nil {
					t.Fatalf("composed: %v", err)
				}
			}
		}
		if err := l.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
	}
	dirA, dirB := t.TempDir(), t.TempDir()
	run(dirA)
	run(dirB)
	a, err := os.ReadFile(filepath.Join(dirA, logName))
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(filepath.Join(dirB, logName))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatalf("log files differ between identical runs (%d vs %d bytes)", len(a), len(b))
	}
}

// TestReopenContinues pins the append-resume contract: reopening a
// directory recovers its contents, continues the sequence past
// everything recovered, and the final log replays both generations.
func TestReopenContinues(t *testing.T) {
	const shards = 2
	dir := t.TempDir()
	l, rp := openLog(t, dir, shards)
	if len(applied(rp)) != 0 {
		t.Fatal("fresh directory replayed entries")
	}
	for i := int64(0); i < 50; i++ {
		if err := logPut(l, int(i%shards), i, i); err != nil {
			t.Fatal(err)
		}
	}
	if err := logComposed(l, Effect{Shard: 0, Key: 100, Val: 1}, Effect{Shard: 1, Key: 101, Val: 2}); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2, rp2 := openLog(t, dir, shards)
	got := applied(rp2)
	if len(got) != 52 {
		t.Fatalf("reopen replayed %d keys, want 52", len(got))
	}
	// New appends must continue, not collide: the sequence resumes past
	// the 51 records recovered.
	if seq := l2.Seq(); seq != 51 {
		t.Fatalf("sequence resumed at %d, want 51", seq)
	}
	for i := int64(50); i < 60; i++ {
		if err := logPut(l2, int(i%shards), i, i); err != nil {
			t.Fatal(err)
		}
	}
	if err := l2.Close(); err != nil {
		t.Fatal(err)
	}
	rp3, err := Scan(dir)
	if err != nil {
		t.Fatal(err)
	}
	if rp3.Torn != nil || len(rp3.Records) != 61 {
		t.Fatalf("not clean after reopen-append: torn=%v, %d records, want 61", rp3.Torn, len(rp3.Records))
	}
	if got := applied(rp3); len(got) != 62 {
		t.Fatalf("final replay has %d keys, want 62", len(got))
	}
}

// TestShardCountMismatch pins the layout guard: a directory created for
// N shards refuses to open as M — replaying shard-routed effects into a
// different layout would scatter keys.
func TestShardCountMismatch(t *testing.T) {
	dir := t.TempDir()
	l, _ := openLog(t, dir, 4)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Open(dir, Options{Shards: 8}); err == nil {
		t.Fatal("Open with mismatched shard count succeeded")
	}
}

// TestStatsCount pins the counters the CSV columns come from.
func TestStatsCount(t *testing.T) {
	dir := t.TempDir()
	l, _ := openLog(t, dir, 1)
	for i := int64(0); i < 10; i++ {
		if err := logPut(l, 0, i, i); err != nil {
			t.Fatal(err)
		}
	}
	s := l.Stats()
	if s.Appends != 10 {
		t.Fatalf("Appends = %d, want 10", s.Appends)
	}
	if s.Syncs == 0 || s.Bytes == 0 {
		t.Fatalf("Syncs/Bytes not counted: %+v", s)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	var nilLog *Log
	if nilLog.Enabled() || nilLog.Stats() != (Stats{}) {
		t.Fatal("nil log not inert")
	}
}

// TestStatsNotCountedOnError: a failed flush must not advance the
// wal_syncs/wal_bytes counters — the CSV columns report durable work,
// not attempts.
func TestStatsNotCountedOnError(t *testing.T) {
	dir := t.TempDir()
	l, _ := openLog(t, dir, 1)
	if err := logPut(l, 0, 1, 1); err != nil {
		t.Fatal(err)
	}
	before := l.Stats()

	// Kill the file descriptor under the log: the next flush's Write
	// fails, and the error goes sticky.
	if err := l.f.Close(); err != nil {
		t.Fatal(err)
	}
	if err := logPut(l, 0, 2, 2); err == nil {
		t.Fatal("Sync on a dead file reported success")
	}
	after := l.Stats()
	if after.Syncs != before.Syncs {
		t.Fatalf("Syncs advanced %d -> %d across a failed flush", before.Syncs, after.Syncs)
	}
	if after.Bytes != before.Bytes {
		t.Fatalf("Bytes advanced %d -> %d across a failed flush", before.Bytes, after.Bytes)
	}
	if after.Appends != before.Appends+1 {
		t.Fatalf("Appends = %d, want %d (the record was buffered)", after.Appends, before.Appends+1)
	}
	if err := l.Sync(0, l.Seq()); err == nil {
		t.Fatal("sticky error cleared itself")
	}
}
