// Package wal is the write-ahead log behind internal/store's durability:
// every committed mutation is appended, at commit time, as one record to
// one append-only log file, and a restart replays those records into
// freshly built shards.
//
// # Record format
//
// Each record is framed as
//
//	u32 length | u32 crc32c(payload) | payload
//
// and every payload has one shape, whatever the mutation:
//
//	seq u64 | count u16 | effects
//
// where each of the count (1..MaxEffects) effects is
//
//	op        fields
//	0 put     op u8 | shard u16 | key i64 | val i64
//	1 remove  op u8 | shard u16 | key i64
//	2 add     op u8 | shard u16 | key i64 | delta i64
//
// all big-endian. A Put is a one-effect record; an MPut, CompareAndMove,
// MAdd or a batch-mode transaction's write set is one record with one
// effect per key, whichever shards they land on. The shard tag lets
// recovery check an effect against the directory's layout. The encoding
// is canonical — every valid byte string decodes to exactly one Record
// that re-encodes to the same bytes — which is what the codec fuzzer
// pins.
//
// seq is global and strictly increasing in the file. It is assigned
// under a short buffer lock taken while the committer holds the commit
// lock of every shard it touches (the store holds those across the
// transaction as well), so each shard's commit order is its log order.
//
// # Group commit
//
// Appends go to one in-memory buffer; durability is a separate Sync call
// made after the commit locks are released. The first syncer becomes the
// flush leader: it swaps the buffer for an empty spare, writes the whole
// batch — every shard's records — with one write(2) (plus one fsync when
// enabled), and broadcasts the new durable sequence; committers that
// arrive while the leader is writing ride the next batch. The
// steady-state path allocates nothing once the two swap buffers have
// grown to the batch size.
//
// # Recovery
//
// Recovery is the longest valid prefix of the log file, then the
// snapshot, then the prefix's records with seq above the snapshot's.
// Because a composition is one record, a torn tail is just a shorter
// prefix: the recovered state is the state after some prefix of the
// commits, and never holds part of a composition. Nothing is decided
// across records, so recovery is read-only and idempotent by
// construction; Open additionally truncates the file to the prefix, so a
// torn tail can never precede live records.
//
// # Snapshots
//
// Snapshots are replay accelerators: the store dumps every shard under
// all commit locks at once (so a composition is entirely inside or
// entirely outside the snapshot), the log is synced through the
// snapshot's sequence, and the entries land in one snap file via
// tmp+rename — a crash leaves the previous snapshot or the new one, never
// a mix. The log is never truncated by snapshotting: recovery from
// snapshot plus log suffix must equal full-log replay, and the recovery
// tests assert exactly that. A snap file that fails validation is
// ignored and the full log replays instead. Compaction (dropping the
// prefix a snapshot covers) is future work.
//
// # Corruption and old formats
//
// Scanning stops at the first invalid record — truncated frame, CRC
// mismatch, malformed payload, sequence regression, or an effect shard
// outside the layout — and reports the cut as a typed *CorruptError
// (byte offset, last valid sequence, reason). A directory written by the
// per-shard format (shard-*.wal files, or a meta file with the previous
// magic) is refused with a typed *VersionError and left untouched.
package wal
