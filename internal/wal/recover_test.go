// Recovery contracts: scanning is idempotent (replay twice = once), a
// snapshot plus the log suffix replays to the same state as the full
// log, and a torn or corrupt log recovers to the state after its longest
// valid record prefix, reporting the cut as a typed error — so a
// composition, being one record, is never recovered in part.
package wal

import (
	"errors"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// writeWorkload populates a fresh 4-shard log with elementary and
// composed operations, returning the directory and the expected final
// contents.
func writeWorkload(t *testing.T) (string, map[int64]int64) {
	t.Helper()
	const shards = 4
	dir := t.TempDir()
	l, _ := openLog(t, dir, shards)
	want := map[int64]int64{}
	for i := int64(0); i < 120; i++ {
		sh := int(i % shards)
		if err := logPut(l, sh, i, i*2); err != nil {
			t.Fatal(err)
		}
		want[i] = i * 2
		if i%9 == 0 {
			if err := logRemove(l, sh, i); err != nil {
				t.Fatal(err)
			}
			delete(want, i)
		}
		if i%13 == 0 {
			from, to := 1000+i, 2000+i+1 // adjacent residues: distinct shards
			err := logComposed(l,
				Effect{Shard: int(from % shards), Key: from, Val: 5},
				Effect{Remove: true, Shard: int(to % shards), Key: to},
			)
			if err != nil {
				t.Fatal(err)
			}
			want[from] = 5
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	return dir, want
}

func assertState(t *testing.T, got, want map[int64]int64, what string) {
	t.Helper()
	if !maps.Equal(got, want) {
		t.Fatalf("%s: recovered %v, want %v", what, got, want)
	}
}

// snapshotNow writes a snapshot the way Store.Snapshot does: every
// commit lock at once, the log position and the contents, release,
// write.
func snapshotNow(t *testing.T, l *Log, state map[int64]int64) {
	t.Helper()
	for i := 0; i < l.Shards(); i++ {
		l.Lock(i)
	}
	seq := l.Seq()
	var entries []Entry
	for k, v := range state {
		entries = append(entries, Entry{Key: k, Val: v})
	}
	for i := l.Shards() - 1; i >= 0; i-- {
		l.Unlock(i)
	}
	if err := l.WriteSnapshot(seq, entries); err != nil {
		t.Fatal(err)
	}
}

// flipByte XORs one byte of path's contents.
func flipByte(t *testing.T, path string, off func(size int) int) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[off(len(data))] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestRecoveryIdempotence: scanning the same directory any number of
// times — and applying one Replay any number of times — yields the same
// state; Open's truncation pass changes nothing a Scan can see.
func TestRecoveryIdempotence(t *testing.T) {
	dir, want := writeWorkload(t)
	rp1, err := Scan(dir)
	if err != nil {
		t.Fatal(err)
	}
	assertState(t, applied(rp1), want, "first scan")
	assertState(t, applied(rp1), want, "same replay applied twice")
	rp2, err := Scan(dir)
	if err != nil {
		t.Fatal(err)
	}
	assertState(t, applied(rp2), want, "second scan")

	// Open truncates a torn tail; a clean directory must come through
	// untouched and still scan identically after.
	l, rp3 := openLog(t, dir, 4)
	assertState(t, applied(rp3), want, "open after scans")
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	rp4, err := Scan(dir)
	if err != nil {
		t.Fatal(err)
	}
	assertState(t, applied(rp4), want, "scan after open")
}

// TestSnapshotPlusSuffix: a snapshot plus the records logged after it
// replays to exactly the state the full log replays to — snapshots
// accelerate, never alter.
func TestSnapshotPlusSuffix(t *testing.T) {
	const shards = 4
	dir := t.TempDir()
	l, _ := openLog(t, dir, shards)
	want := map[int64]int64{}
	put := func(key, val int64) {
		if err := logPut(l, int(key%shards), key, val); err != nil {
			t.Fatal(err)
		}
		want[key] = val
	}
	for i := int64(0); i < 80; i++ {
		put(i, i)
	}
	snapshotNow(t, l, want)

	// The suffix: more elementary ops and a composition.
	for i := int64(80); i < 120; i++ {
		put(i, i*3)
	}
	if err := logComposed(l, Effect{Shard: 0, Key: 5000, Val: 1}, Effect{Shard: 1, Key: 5001, Val: 2}); err != nil {
		t.Fatal(err)
	}
	want[5000], want[5001] = 1, 2
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	withSnap, err := Scan(dir)
	if err != nil {
		t.Fatal(err)
	}
	fullLog, err := ScanNoSnapshots(dir)
	if err != nil {
		t.Fatal(err)
	}
	if withSnap.Snapshot == nil || withSnap.SnapSeq != 80 {
		t.Fatalf("snapshot not picked up (seq %d, want 80)", withSnap.SnapSeq)
	}
	if fullLog.Snapshot != nil {
		t.Fatal("ScanNoSnapshots read a snapshot")
	}
	assertState(t, applied(withSnap), want, "snapshot+suffix")
	assertState(t, applied(fullLog), want, "full log")
}

// TestTornTailTruncated: a frame cut mid-record replays cleanly to the
// last valid record, reporting a typed *CorruptError with the cut
// point, and Open resumes appending from there.
func TestTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	l, _ := openLog(t, dir, 1)
	for i := int64(0); i < 20; i++ {
		if err := logPut(l, 0, i, i); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(dir, logName)
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	// Slice off the last 5 bytes: the final record loses its tail.
	if err := os.Truncate(path, info.Size()-5); err != nil {
		t.Fatal(err)
	}

	rp, err := Scan(dir)
	if err != nil {
		t.Fatal(err)
	}
	var ce *CorruptError
	if !errors.As(error(rp.Torn), &ce) || ce.Seq != 19 || ce.Reason != "truncated frame body" {
		t.Fatalf("torn = %+v, want seq 19, truncated frame body", rp.Torn)
	}
	if len(rp.Records) != 19 {
		t.Fatalf("kept %d records, want 19", len(rp.Records))
	}
	got := applied(rp)
	if len(got) != 19 || got[18] != 18 {
		t.Fatalf("replay after torn tail wrong: %d keys", len(got))
	}

	// Open truncates the tail and appends resume at seq 20.
	l2, _ := openLog(t, dir, 1)
	if err := logPut(l2, 0, 99, 99); err != nil {
		t.Fatal(err)
	}
	if err := l2.Close(); err != nil {
		t.Fatal(err)
	}
	rp2, err := Scan(dir)
	if err != nil {
		t.Fatal(err)
	}
	if rp2.Torn != nil {
		t.Fatalf("still torn after Open: %v", rp2.Torn)
	}
	if got := applied(rp2); len(got) != 20 || got[99] != 99 || rp2.Records[19].Seq != 20 {
		t.Fatalf("replay after repair wrong: %v keys", len(got))
	}
}

// TestTornTailBitFlip: a corrupted byte inside a record body fails the
// CRC and cuts there, keeping everything before it.
func TestTornTailBitFlip(t *testing.T) {
	dir := t.TempDir()
	l, _ := openLog(t, dir, 1)
	for i := int64(0); i < 10; i++ {
		if err := logPut(l, 0, i, i); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// Flip the last record's final payload byte.
	flipByte(t, filepath.Join(dir, logName), func(size int) int { return size - 1 })
	rp, err := Scan(dir)
	if err != nil {
		t.Fatal(err)
	}
	if rp.Torn == nil || rp.Torn.Reason != "crc mismatch" || rp.Torn.Seq != 9 {
		t.Fatalf("torn = %+v, want crc mismatch at seq 9", rp.Torn)
	}
	if got := applied(rp); len(got) != 9 {
		t.Fatalf("kept %d keys, want 9", len(got))
	}
}

// tornAfterComposition logs a put, one composition over every shard of
// a 3-shard log, then a put whose frame it tears in half — the crash
// cut the last record mid-write. It returns the directory.
func tornAfterComposition(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	l, _ := openLog(t, dir, 3)
	if err := logPut(l, 0, 0, 1); err != nil {
		t.Fatal(err)
	}
	if err := logComposed(l,
		Effect{Shard: 0, Key: 10, Val: 7},
		Effect{Remove: true, Shard: 1, Key: 0},
		Effect{Delta: true, Shard: 2, Key: 11, Val: 3},
	); err != nil {
		t.Fatal(err)
	}
	if err := logPut(l, 1, 20, 9); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, logName)
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, info.Size()-10); err != nil {
		t.Fatal(err)
	}
	return dir
}

// TestMissingIntentHealsFromMarker: a composition that is the last
// complete frame before a torn tail survives whole on every shard it
// touched — there is no per-shard evidence left to go missing — and a
// write to one of its keys after reopening replays after it.
func TestMissingIntentHealsFromMarker(t *testing.T) {
	dir := tornAfterComposition(t)
	rp, err := Scan(dir)
	if err != nil {
		t.Fatal(err)
	}
	if rp.Torn == nil || len(rp.Records) != 2 {
		t.Fatalf("torn = %v, %d records; want the third record cut", rp.Torn, len(rp.Records))
	}
	want := map[int64]int64{10: 7, 11: 3}
	assertState(t, applied(rp), want, "composition before a torn tail")

	l, rp2 := openLog(t, dir, 3)
	assertState(t, applied(rp2), want, "after open")
	if err := logPut(l, 0, 10, 99); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	rp3, err := Scan(dir)
	if err != nil {
		t.Fatal(err)
	}
	want[10] = 99
	assertState(t, applied(rp3), want, "write after reopen")
}

// TestLostMarkerRollsBack: a composition torn mid-frame recovers as
// entirely absent — at every cut inside its frame — while the record
// acknowledged before it survives: a later composition's tear never
// takes an acknowledged record with it.
func TestLostMarkerRollsBack(t *testing.T) {
	dir := t.TempDir()
	l, _ := openLog(t, dir, 2)
	if err := logPut(l, 1, 21, 2); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, logName)
	acked, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	l, _ = openLog(t, dir, 2)
	if err := logComposed(l, Effect{Shard: 0, Key: 10, Val: 7}, Effect{Shard: 1, Key: 21, Val: 8}); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want := map[int64]int64{21: 2}
	for cut := len(acked) + 1; cut < len(full); cut++ {
		if err := os.WriteFile(path, full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		rp, err := Scan(dir)
		if err != nil {
			t.Fatal(err)
		}
		if rp.Torn == nil || rp.Torn.Off != int64(len(acked)) {
			t.Fatalf("cut %d: torn = %+v, want a cut at offset %d", cut, rp.Torn, len(acked))
		}
		assertState(t, applied(rp), want, fmt.Sprintf("cut %d", cut))
	}

	// Open drops the torn frame and the log accepts new appends.
	l2, rp2 := openLog(t, dir, 2)
	assertState(t, applied(rp2), want, "after open")
	if err := logPut(l2, 1, 31, 3); err != nil {
		t.Fatal(err)
	}
	if err := l2.Close(); err != nil {
		t.Fatal(err)
	}
	rp3, err := Scan(dir)
	if err != nil {
		t.Fatal(err)
	}
	want[31] = 3
	assertState(t, applied(rp3), want, "appends after the cut")
}

// TestCommitMarkerAlone: a composition whose frame is the last thing in
// the file — the crash landed right after its write — is complete, and
// survives whole on every shard it touched, removes and deltas included.
func TestCommitMarkerAlone(t *testing.T) {
	dir := tornAfterComposition(t)
	l, _ := openLog(t, dir, 3) // drops the torn put: the composition ends the file
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	rp, err := Scan(dir)
	if err != nil {
		t.Fatal(err)
	}
	if rp.Torn != nil || len(rp.Records) != 2 || len(rp.Records[1].Effects) != 3 {
		t.Fatalf("torn = %v, %d records; want a clean file ending in the composition", rp.Torn, len(rp.Records))
	}
	assertState(t, applied(rp), map[int64]int64{10: 7, 11: 3}, "composition ending the file")
}

// TestCorruptSnapshotIgnored: a snap file that fails validation is
// reported and ignored — the full log replays instead, losing nothing
// (the log is never truncated by snapshotting).
func TestCorruptSnapshotIgnored(t *testing.T) {
	const shards = 2
	dir := t.TempDir()
	l, _ := openLog(t, dir, shards)
	want := map[int64]int64{}
	for i := int64(0); i < 40; i++ {
		if err := logPut(l, int(i%shards), i, i); err != nil {
			t.Fatal(err)
		}
		want[i] = i
	}
	snapshotNow(t, l, want)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	flipByte(t, filepath.Join(dir, snapName), func(size int) int { return size / 2 })

	rp, err := Scan(dir)
	if err != nil {
		t.Fatal(err)
	}
	var se *SnapshotError
	if !errors.As(rp.SnapCorrupt, &se) {
		t.Fatalf("SnapCorrupt = %v, want typed *SnapshotError", rp.SnapCorrupt)
	}
	if rp.Snapshot != nil || rp.SnapSeq != 0 {
		t.Fatal("corrupt snapshot still used")
	}
	assertState(t, applied(rp), want, "corrupt snapshot fallback")
}

// TestCorruptSnapshotPreSnapshotComposition: a composition committed
// and snapshotted, followed by an acknowledged put, then the snap file
// corrupts. Recovery falls back to the full log, whose records are all
// there, so the composition stays whole and nothing is cut.
func TestCorruptSnapshotPreSnapshotComposition(t *testing.T) {
	const shards = 2
	dir := t.TempDir()
	l, _ := openLog(t, dir, shards)
	if err := logComposed(l, Effect{Shard: 0, Key: 100, Val: 1}, Effect{Shard: 1, Key: 101, Val: 2}); err != nil {
		t.Fatal(err)
	}
	if err := logPut(l, 0, 200, 5); err != nil { // acked: must survive
		t.Fatal(err)
	}
	want := map[int64]int64{100: 1, 101: 2, 200: 5}
	snapshotNow(t, l, want)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	flipByte(t, filepath.Join(dir, snapName), func(size int) int { return size / 2 })

	rp, err := Scan(dir)
	if err != nil {
		t.Fatal(err)
	}
	if rp.SnapCorrupt == nil {
		t.Fatal("corrupt snap file not reported")
	}
	if rp.Torn != nil || len(rp.Records) != 2 {
		t.Fatalf("torn = %v, %d records: the log was cut", rp.Torn, len(rp.Records))
	}
	assertState(t, applied(rp), want, "corrupt snap, pre-snapshot composition")

	l2, rp2 := openLog(t, dir, shards)
	assertState(t, applied(rp2), want, "after open")
	if err := l2.Close(); err != nil {
		t.Fatal(err)
	}
	rp3, err := Scan(dir)
	if err != nil {
		t.Fatal(err)
	}
	assertState(t, applied(rp3), want, "after open, rescanned")
}

// TestMixedSnapshotGenerations: a crash between the second snapshot's
// tmp write and its rename leaves the first snapshot in place and the
// second only in the tmp file. Recovery is the old snapshot plus the log
// suffix, a composition and a put included, and equals the full replay.
func TestMixedSnapshotGenerations(t *testing.T) {
	const shards = 2
	dir := t.TempDir()
	l, _ := openLog(t, dir, shards)
	want := map[int64]int64{}
	for i := int64(0); i < 10; i++ {
		if err := logPut(l, int(i%shards), i, i); err != nil {
			t.Fatal(err)
		}
		want[i] = i
	}
	snapshotNow(t, l, want)
	path := filepath.Join(dir, snapName)
	gen1, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	if err := logComposed(l, Effect{Shard: 0, Key: 300, Val: 7}, Effect{Shard: 1, Key: 301, Val: 8}); err != nil {
		t.Fatal(err)
	}
	if err := logPut(l, 1, 400, 9); err != nil { // acked: must survive
		t.Fatal(err)
	}
	want[300], want[301], want[400] = 7, 8, 9
	snapshotNow(t, l, want)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// The crash: generation 2 reached its tmp file, the rename never
	// happened.
	if err := os.Rename(path, path+".tmp"); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, gen1, 0o644); err != nil {
		t.Fatal(err)
	}

	rp, err := Scan(dir)
	if err != nil {
		t.Fatal(err)
	}
	if rp.SnapSeq != 10 {
		t.Fatalf("snapshot at seq %d, want the first generation's 10", rp.SnapSeq)
	}
	assertState(t, applied(rp), want, "old snapshot + suffix")
	full, err := ScanNoSnapshots(dir)
	if err != nil {
		t.Fatal(err)
	}
	assertState(t, applied(full), want, "full log")
}

// TestPrefixEnumeration is the exhaustive torn-log table. A scripted log
// of puts, removes, adds, single-shard and cross-shard compositions, with
// one snapshot in the middle, is truncated at every byte offset, and
// separately has every byte of every record flipped. Each case must
// recover exactly the model state after its longest whole-record prefix
// (or the snapshot, if that is later) — which makes every composition,
// being one record, all or nothing — and Scan twice, and Open then Scan,
// must agree with it.
func TestPrefixEnumeration(t *testing.T) {
	const shards = 4
	src := t.TempDir()
	l, _ := openLog(t, src, shards)
	eff := func(key int64) Effect { return Effect{Shard: int(key % shards), Key: key} }
	models := []map[int64]int64{{}} // models[i]: the state after i records
	const snapAt = 20
	for i := int64(0); i < 40; i++ {
		var effects []Effect
		switch k := i % 8; i % 5 {
		case 0: // put
			e := eff(k)
			e.Val = i
			effects = []Effect{e}
		case 1: // add
			e := eff((k + 3) % 8)
			e.Delta, e.Val = true, i
			effects = []Effect{e}
		case 2: // remove
			e := eff((k + 5) % 8)
			e.Remove = true
			effects = []Effect{e}
		case 3: // single-shard composition: k and k+4 share a shard
			a, b := eff(k%4), eff(k%4+4)
			a.Val, b.Delta, b.Val = -i, true, 2
			effects = []Effect{a, b}
		case 4: // cross-shard composition: three adjacent keys, three shards
			a, b, c := eff(k), eff(k+1), eff(k+2)
			a.Val, b.Remove, c.Delta, c.Val = i*10, true, true, -1
			effects = []Effect{a, b, c}
		}
		if err := logComposed(l, effects...); err != nil {
			t.Fatal(err)
		}
		m := maps.Clone(models[len(models)-1])
		for j := range effects {
			apply(m, &effects[j])
		}
		models = append(models, m)
		if len(models)-1 == snapAt {
			snapshotNow(t, l, m)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	full, err := os.ReadFile(filepath.Join(src, logName))
	if err != nil {
		t.Fatal(err)
	}
	rpFull, err := Scan(src)
	if err != nil {
		t.Fatal(err)
	}
	offs := []int{0} // offs[i]: where record i+1's frame starts
	for _, r := range rpFull.Records {
		offs = append(offs, offs[len(offs)-1]+frameHeaderSize+len(AppendPayload(nil, r.Seq, r.Effects)))
	}
	if len(offs) != len(models) || offs[len(offs)-1] != len(full) {
		t.Fatalf("scripted %d records into %d bytes; scanned %d records over %d", len(models)-1, len(full), len(offs)-1, offs[len(offs)-1])
	}

	dir := t.TempDir()
	for _, name := range []string{metaName, snapName} {
		b, err := os.ReadFile(filepath.Join(src, name))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, name), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	// check recovers data, which holds exactly `whole` intact records.
	check := func(what string, data []byte, whole int) {
		if err := os.WriteFile(filepath.Join(dir, logName), data, 0o644); err != nil {
			t.Fatal(err)
		}
		want := models[max(whole, snapAt)]
		rp, err := Scan(dir)
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		if len(rp.Records) != whole || (rp.Torn == nil) != (len(data) == offs[whole]) {
			t.Fatalf("%s: %d records, torn %v; want %d records", what, len(rp.Records), rp.Torn, whole)
		}
		if got := applied(rp); !maps.Equal(got, want) {
			t.Fatalf("%s: recovered %v, want the state after %d records %v", what, got, max(whole, snapAt), want)
		}
		if rp2, err := Scan(dir); err != nil || !reflect.DeepEqual(rp, rp2) {
			t.Fatalf("%s: a second Scan differs (%v)", what, err)
		}
		lo, rpOpen := openLog(t, dir, shards)
		if err := lo.Close(); err != nil {
			t.Fatal(err)
		}
		rp3, err := Scan(dir)
		if err != nil {
			t.Fatalf("%s: scan after open: %v", what, err)
		}
		if !reflect.DeepEqual(rpOpen.Records, rp.Records) || rp3.Torn != nil ||
			!reflect.DeepEqual(rp3.Records, rp.Records) || !maps.Equal(applied(rp3), want) {
			t.Fatalf("%s: Open then Scan recovered differently", what)
		}
	}
	whole := 0
	for cut := 0; cut <= len(full); cut++ {
		for whole+1 < len(offs) && offs[whole+1] <= cut {
			whole++
		}
		check(fmt.Sprintf("cut %d", cut), full[:cut], whole)
	}
	for i := 0; i+1 < len(offs); i++ {
		for off := offs[i]; off < offs[i+1]; off++ {
			data := append([]byte(nil), full...)
			data[off] ^= 0xff
			check(fmt.Sprintf("record %d, byte %d flipped", i+1, off), data, i)
		}
	}
}

// TestVersionRefusal: a directory of the previous format — a v1 meta
// file, or per-shard shard-*.wal files — is refused with a typed
// *VersionError by Open and Scan alike, and left exactly as it was.
func TestVersionRefusal(t *testing.T) {
	v1 := []byte("oewal001\x00\x00\x00\x10")
	v1 = append(v1, 0, 0, 0, 0)
	for name, files := range map[string]map[string][]byte{
		"v1 meta":     {metaName: v1},
		"shard files": {"shard-0000.wal": {1, 2, 3}},
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			for f, b := range files {
				if err := os.WriteFile(filepath.Join(dir, f), b, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			_, _, openErr := Open(dir, Options{Shards: 16})
			_, scanErr := Scan(dir)
			for _, err := range []error{openErr, scanErr} {
				var ve *VersionError
				if !errors.As(err, &ve) || ve.Dir != dir || ve.Found == "" {
					t.Fatalf("err = %v, want a *VersionError naming %s", err, dir)
				}
			}
			entries, err := os.ReadDir(dir)
			if err != nil {
				t.Fatal(err)
			}
			if len(entries) != len(files) {
				t.Fatalf("the refused directory changed: %d entries, had %d", len(entries), len(files))
			}
			for f, b := range files {
				if got, err := os.ReadFile(filepath.Join(dir, f)); err != nil || string(got) != string(b) {
					t.Fatalf("%s rewritten (%v)", f, err)
				}
			}
		})
	}
}

// TestSummaryMentionsRecovery pins the startup log line CI greps for.
func TestSummaryMentionsRecovery(t *testing.T) {
	dir, _ := writeWorkload(t)
	rp, err := Scan(dir)
	if err != nil {
		t.Fatal(err)
	}
	s := rp.Summary()
	if len(s) < 14 || s[:14] != "wal: recovered" {
		t.Fatalf("summary = %q", s)
	}
}
