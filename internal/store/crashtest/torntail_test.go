// Torn-tail injection on top of a real crash: after the SIGKILL,
// corrupt the log the way a dying disk or an interrupted write(2)
// would — slice bytes off its tail, flip a bit inside it — and require
// recovery to stop cleanly at the last valid record with a typed error,
// still satisfying the workload invariant (the cut may discard records,
// never conservation: every move is one record).
package crashtest

import (
	"os"
	"path/filepath"
	"testing"
)

func TestTornTailAfterCrash(t *testing.T) {
	const keys = 64
	dir := t.TempDir()
	ch := spawn(t, "oestm", 8, false, dir)

	seeder := dialChild(t, ch)
	for k := 0; k < keys; k += 2 {
		if _, err := seeder.Put(int64(k), TokenVal); err != nil {
			t.Fatalf("seed: %v", err)
		}
	}
	// Post-seed traffic: shuttle every token between its even home and
	// the odd slot next door, so each round relocates all of them and
	// the log grows well past the seeds. Seeds therefore sit at the front
	// of the file and the injected cuts reach move records alone —
	// conservation stays exactly auditable.
	moved := 0
	for round := 0; round < 12; round++ {
		for k := 0; k < keys; k += 2 {
			from, to := int64(k), int64(k+1)
			if round%2 == 1 {
				from, to = to, from
			}
			ok, err := seeder.CompareAndMove(from, to, TokenVal)
			if err != nil {
				t.Fatalf("load: %v", err)
			}
			if ok {
				moved++
			}
		}
	}
	if moved != 12*keys/2 {
		t.Fatalf("only %d of %d moves happened; the workload has gone soft", moved, 12*keys/2)
	}
	seeder.Close()
	ch.kill()

	// Injection 1: tear the log mid-record, as an interrupted write(2)
	// would.
	path := filepath.Join(dir, walFile)
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if info.Size() < 1024 {
		t.Fatalf("the log did not grow (%d bytes)", info.Size())
	}
	if err := os.Truncate(path, info.Size()-5); err != nil {
		t.Fatal(err)
	}
	// Injection 2: flip a bit three quarters of the way in, as a dying
	// disk would; the cut then lands there, well past the seeds.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)*3/4] ^= 0x20
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	f, rp, err := Recovered("oestm", dir)
	if err != nil {
		t.Fatalf("recover after injection: %v", err)
	}
	if ce := rp.Torn; ce == nil || ce.Reason == "" || ce.Off > int64(len(data)*3/4) {
		t.Fatalf("injected corruption misreported: %+v", ce)
	}
	// Every seed was acknowledged before the first move, so the cuts can
	// never reach them: at minimum the full token population survives.
	if kept := KeptRecords(rp); kept < keys/2 {
		t.Fatalf("recovery cut into acknowledged seeds: %d records kept", kept)
	}
	if v, present := AuditTokens(f, keys); v != 0 {
		t.Errorf("%d conservation violations after torn-tail recovery (%d tokens present)", v, present)
	}
}

// walFile mirrors internal/wal's log file name (the injection has to
// find the file; pinning the name here means a rename breaks this test
// loudly, not silently).
const walFile = "log.wal"
