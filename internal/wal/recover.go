package wal

import (
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"strings"
)

// Replay is the recovered state of a log directory, produced by Open or
// Scan and applied to a store via Apply: the snapshot (if any), then the
// log's longest valid prefix.
type Replay struct {
	// Shards is the directory's shard count.
	Shards int

	// Snapshot holds the snap file's entries (nil without one); SnapSeq
	// is the log sequence it covers — records with Seq <= SnapSeq are
	// already folded in and are skipped by Apply.
	Snapshot []Entry
	SnapSeq  uint64
	// SnapCorrupt records a snap file that failed validation; the
	// snapshot is then ignored and the full log replayed instead (the log
	// is never truncated by snapshotting, so this loses nothing).
	SnapCorrupt error

	// Records is the log's longest valid prefix, in file order.
	Records []Record
	// Torn describes why scanning stopped before the end of the file (nil
	// for a clean end); it is the typed cut-point error of the torn-tail
	// contract.
	Torn *CorruptError

	end int64 // the prefix's byte length: the file size Open keeps
}

// Scan reads the log directory without opening it for appends: the same
// recovery Open performs, reusable any number of times (recovery is
// read-only, hence idempotent). The shard count comes from the meta
// file.
func Scan(dir string) (*Replay, error) {
	shards, err := readMeta(dir)
	if err != nil {
		return nil, err
	}
	return scan(dir, shards, true)
}

// ScanNoSnapshots is Scan with the snap file ignored — the full-log
// replay the snapshot-equivalence tests compare against.
func ScanNoSnapshots(dir string) (*Replay, error) {
	shards, err := readMeta(dir)
	if err != nil {
		return nil, err
	}
	return scan(dir, shards, false)
}

// scan reads the snapshot (when snapshots is set) and the log file's
// longest valid prefix: it stops at the first truncated frame, CRC
// mismatch, malformed payload, non-increasing sequence, or effect routed
// to a nonexistent shard.
func scan(dir string, shards int, snapshots bool) (*Replay, error) {
	rp := &Replay{Shards: shards}
	if snapshots {
		switch entries, seq, err := readSnapshot(filepath.Join(dir, snapName)); {
		case err == nil:
			rp.Snapshot, rp.SnapSeq = entries, seq
		case !os.IsNotExist(err):
			rp.SnapCorrupt = err
		}
	}
	data, err := os.ReadFile(filepath.Join(dir, logName))
	if err != nil && !os.IsNotExist(err) {
		return nil, err
	}
	var prev uint64
	for rp.end < int64(len(data)) {
		r, n, reason := parseFrame(data[rp.end:], shards)
		if reason == "" && r.Seq <= prev {
			reason = "sequence not increasing"
		}
		if reason != "" {
			rp.Torn = &CorruptError{Off: rp.end, Seq: prev, Reason: reason}
			break
		}
		rp.Records = append(rp.Records, r)
		prev = r.Seq
		rp.end += int64(n)
	}
	return rp, nil
}

// parseFrame decodes the frame at the start of b, returning the record
// and the frame's length, or why b does not start with a valid frame.
func parseFrame(b []byte, shards int) (r Record, n int, reason string) {
	if len(b) < frameHeaderSize {
		return r, 0, "truncated frame header"
	}
	size := binary.BigEndian.Uint32(b)
	if size == 0 || size > MaxRecordSize {
		return r, 0, "frame length out of range"
	}
	n = frameHeaderSize + int(size)
	if len(b) < n {
		return r, 0, "truncated frame body"
	}
	payload := b[frameHeaderSize:n]
	if checksum(payload) != binary.BigEndian.Uint32(b[4:]) {
		return r, 0, "crc mismatch"
	}
	if err := DecodePayload(payload, &r); err != nil {
		return r, 0, err.(*FormatError).Reason
	}
	for _, e := range r.Effects {
		if e.Shard >= shards {
			return r, 0, fmt.Sprintf("effect shard %d out of range", e.Shard)
		}
	}
	return r, n, ""
}

// lastSeq is the sequence appends resume after.
func (rp *Replay) lastSeq() uint64 {
	seq := rp.SnapSeq
	if n := len(rp.Records); n > 0 {
		seq = max(seq, rp.Records[n-1].Seq)
	}
	return seq
}

// Apply replays the recovered state into fn, one effect at a time: the
// snapshot entries as puts, then every effect of every record past the
// snapshot, in log order. Each shard's commit order is its log order, so
// per key this is the commit order; and a record is all of one
// mutation's effects, so a prefix never holds part of a composition.
// Apply is read-only on the Replay and can run any number of times
// (recovery idempotence).
func (rp *Replay) Apply(fn func(e *Effect)) {
	var put Effect
	for _, s := range rp.Snapshot {
		put.Key, put.Val = s.Key, s.Val
		fn(&put)
	}
	for i := range rp.Records {
		if r := &rp.Records[i]; r.Seq > rp.SnapSeq {
			for j := range r.Effects {
				fn(&r.Effects[j])
			}
		}
	}
}

// Summary renders a one-line human description of the recovery (for
// compose-server startup logs and CI greps).
func (rp *Replay) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "wal: recovered %d records over %d shards", len(rp.Records), rp.Shards)
	if rp.Snapshot != nil {
		fmt.Fprintf(&b, ", snapshot of %d entries at seq %d", len(rp.Snapshot), rp.SnapSeq)
	}
	if rp.SnapCorrupt != nil {
		fmt.Fprintf(&b, ", snapshot ignored (%v)", rp.SnapCorrupt)
	}
	if rp.Torn != nil {
		fmt.Fprintf(&b, ", torn tail cut (%v)", rp.Torn)
	}
	return b.String()
}
