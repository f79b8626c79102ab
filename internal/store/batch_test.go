package store

import (
	"os"
	"path/filepath"
	"testing"

	"oestm/internal/specexec"
	"oestm/internal/stm"
	"oestm/internal/wal"
)

// commitBatch drives one batch through the Applier in the
// specexec.Committer sequence, every job on the dispatcher slot.
func commitBatch(a *Applier, txns ...[]specexec.WriteDesc) {
	a.Begin(len(txns))
	for i, w := range txns {
		a.Stage(i, w)
	}
	for job, n := 0, a.Jobs(); job < n; job++ {
		a.RunJob(0, job)
	}
	a.Finish()
}

// sameShardKeys returns n keys that all route to one shard of s.
func sameShardKeys(s *Store, n int) []int64 {
	var keys []int64
	for k := int64(1); len(keys) < n; k++ {
		if s.ShardOf(k) == s.ShardOf(1) {
			keys = append(keys, k)
		}
	}
	return keys
}

// TestApplierSameShardGroupTornTail is the state-in/state-out recovery
// table for the one record-shape rule: seed four same-shard keys, commit
// ONE multi-key write set through the batch Applier with a WAL, then
// recover from the log file truncated at every byte offset inside that
// group's record (a torn tail, or the landed prefix of a partial
// write(2)). The recovered keys must be exactly the seed state or exactly
// the committed state — never a prefix of the group. A write set whose
// keys share a shard used to be logged as independent plain records, so
// every record boundary inside the group recovered a torn composition.
func TestApplierSameShardGroupTornTail(t *testing.T) {
	const seed = 100
	cases := []struct {
		name  string
		group func(keys []int64) []specexec.WriteDesc
		want  [4]int64
	}{
		{"mput4", func(k []int64) []specexec.WriteDesc {
			return []specexec.WriteDesc{{Key: k[0], Val: 1}, {Key: k[1], Val: 2}, {Key: k[2], Val: 3}, {Key: k[3], Val: 4}}
		}, [4]int64{1, 2, 3, 4}},
		{"madd-zero-sum", func(k []int64) []specexec.WriteDesc {
			return []specexec.WriteDesc{{Key: k[0], Val: 7, Delta: true}, {Key: k[1], Val: -7, Delta: true},
				{Key: k[2], Val: 5, Delta: true}, {Key: k[3], Val: -5, Delta: true}}
		}, [4]int64{seed + 7, seed - 7, seed + 5, seed - 5}},
	}
	newTM := engines()[0].newi
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			log, _, err := wal.Open(dir, wal.Options{Shards: 4})
			if err != nil {
				t.Fatal(err)
			}
			tm := newTM()
			s := New(Config{Shards: 4, WAL: log})
			a := NewApplier(s, 1, func() *stm.Thread { return stm.NewThread(tm) })
			keys := sameShardKeys(s, 4)
			file := filepath.Join(dir, "log.wal")

			for _, k := range keys { // seed: four independent transactions
				commitBatch(a, []specexec.WriteDesc{{Key: k, Val: seed}})
			}
			before, err := os.Stat(file)
			if err != nil {
				t.Fatal(err)
			}
			commitBatch(a, c.group(keys))
			if err := log.Close(); err != nil { // reports a sticky flush error too
				t.Fatal(err)
			}
			full, err := os.ReadFile(file)
			if err != nil {
				t.Fatal(err)
			}
			if int64(len(full)) <= before.Size() {
				t.Fatalf("group appended nothing (%d <= %d bytes)", len(full), before.Size())
			}

			for cut := before.Size(); cut <= int64(len(full)); cut++ {
				if err := os.WriteFile(file, full[:cut], 0o644); err != nil {
					t.Fatal(err)
				}
				rp, err := wal.Scan(dir)
				if err != nil {
					t.Fatalf("cut %d: %v", cut, err)
				}
				s2 := New(Config{Shards: 4})
				th2 := stm.NewThread(newTM())
				s2.Recover(th2, rp)
				f2 := s2.NewFrame(th2)
				var got [4]int64
				for i, k := range keys {
					v, ok := f2.Get(k)
					if !ok {
						t.Fatalf("cut %d: seeded key %d absent", cut, k)
					}
					got[i] = v
				}
				want := [4]int64{seed, seed, seed, seed}
				if cut == int64(len(full)) {
					want = c.want
				}
				if got != want {
					t.Fatalf("cut %d of [%d, %d]: recovered %v, want %v (a prefix of the group survived the torn tail)",
						cut, before.Size(), len(full), got, want)
				}
			}
		})
	}
}
