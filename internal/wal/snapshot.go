package wal

import (
	"encoding/binary"
	"os"
	"path/filepath"
)

// Entry is one snapshot entry: a key and its value.
type Entry struct {
	Key, Val int64
}

// snapMagic identifies snap files (format version in the suffix).
var snapMagic = [8]byte{'o', 'e', 's', 'n', 'a', 'p', '0', '2'}

// SnapshotError is the typed validation error of the snap file; recovery
// treats a corrupt snapshot as absent and replays the full log instead
// (see Replay.SnapCorrupt).
type SnapshotError struct {
	Reason string
}

func (e *SnapshotError) Error() string { return "wal: snapshot: " + e.Reason }

// appendSnapshot encodes a snapshot: magic, covered sequence, entry
// count, entries, trailing CRC-32C over everything before it.
func appendSnapshot(dst []byte, seq uint64, entries []Entry) []byte {
	dst = append(dst, snapMagic[:]...)
	dst = binary.BigEndian.AppendUint64(dst, seq)
	dst = binary.BigEndian.AppendUint64(dst, uint64(len(entries)))
	for _, e := range entries {
		dst = binary.BigEndian.AppendUint64(dst, uint64(e.Key))
		dst = binary.BigEndian.AppendUint64(dst, uint64(e.Val))
	}
	return binary.BigEndian.AppendUint32(dst, checksum(dst))
}

// readSnapshot parses the snap file at path. A missing file returns the
// underlying not-exist error; anything malformed returns a typed
// *SnapshotError.
func readSnapshot(path string) ([]Entry, uint64, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, 0, err
	}
	serr := func(reason string) ([]Entry, uint64, error) {
		return nil, 0, &SnapshotError{Reason: reason}
	}
	if len(b) < 28 || [8]byte(b[:8]) != snapMagic {
		return serr("not a snapshot file")
	}
	if checksum(b[:len(b)-4]) != binary.BigEndian.Uint32(b[len(b)-4:]) {
		return serr("checksum mismatch")
	}
	seq := binary.BigEndian.Uint64(b[8:])
	count := binary.BigEndian.Uint64(b[16:])
	body := b[24 : len(b)-4]
	if len(body)%16 != 0 || uint64(len(body)/16) != count {
		return serr("entry count mismatch")
	}
	entries := make([]Entry, 0, count)
	for ; len(body) > 0; body = body[16:] {
		entries = append(entries, Entry{
			Key: int64(binary.BigEndian.Uint64(body)),
			Val: int64(binary.BigEndian.Uint64(body[8:])),
		})
	}
	return entries, seq, nil
}

// WriteSnapshot persists the store's full contents as of log sequence
// seq, captured by the caller under every shard's commit lock at once
// (so each composition is entirely inside or entirely outside it). The
// log is synced through seq first, so the records the snapshot folds in
// stay on disk behind it; the file lands via tmp+rename, so a crash
// leaves either the previous snapshot or this one, never a mix.
func (l *Log) WriteSnapshot(seq uint64, entries []Entry) error {
	if err := l.Sync(0, seq); err != nil {
		return err
	}
	path := filepath.Join(l.dir, snapName)
	if err := writeFileSync(path+".tmp", appendSnapshot(nil, seq, entries), l.fsync); err != nil {
		return err
	}
	if err := os.Rename(path+".tmp", path); err != nil {
		return err
	}
	if l.fsync {
		return syncDir(l.dir)
	}
	return nil
}

// writeFileSync writes data to path, optionally fsyncing before close.
func writeFileSync(path string, data []byte, fsync bool) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	_, err = f.Write(data)
	if err == nil && fsync {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
