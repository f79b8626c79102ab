package wal

import (
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
)

// Options parameterises Open.
type Options struct {
	// Shards is the shard count; it must match the store's (and, for an
	// existing directory, the meta file's).
	Shards int
	// Fsync makes every flush fsync before acknowledging. Off, a batch
	// is durable against process death (SIGKILL included: written bytes
	// live in the page cache) but not against power loss.
	Fsync bool
}

// Stats is a snapshot of the log's cumulative counters, exported
// through the server's stats endpoint into the wal_* CSV columns.
type Stats struct {
	Appends uint64 // records appended
	Syncs   uint64 // flush batches fully written (fsync syscalls when enabled)
	Bytes   uint64 // bytes the OS accepted into the log file
}

// commitLock is one shard's commit lock, padded to a cache line so
// neighbouring shards' committers do not false-share.
type commitLock struct {
	sync.Mutex
	_ [56]byte
}

// Log is an open write-ahead log: one append-only file, a meta file and
// at most one snapshot, all inside one directory. Create with Open.
type Log struct {
	dir   string
	fsync bool

	// locks are the per-shard commit locks. The store holds a shard's
	// lock across the shard's transaction and the append of the record
	// it commits, so each shard's commit order is its log order.
	locks []commitLock

	mu  sync.Mutex // buffer lock: seq and buf
	seq uint64     // last assigned sequence
	buf []byte     // pending batch

	fmu      sync.Mutex // flush state below
	cond     *sync.Cond // signalled when durable advances or flushing ends
	flushing bool
	durable  uint64 // highest sequence flushed to the file
	spare    []byte // the off-duty swap buffer
	f        *os.File
	err      error // sticky first I/O error

	appends atomic.Uint64
	syncs   atomic.Uint64
	bytes   atomic.Uint64
}

// Shards returns the shard count the log was opened with.
func (l *Log) Shards() int { return len(l.locks) }

// Dir returns the log directory.
func (l *Log) Dir() string { return l.dir }

// Enabled reports whether l is a live log; it is false on a nil
// receiver so callers can keep one unconditional expression.
func (l *Log) Enabled() bool { return l != nil }

// Stats snapshots the cumulative counters (zero on a nil receiver).
func (l *Log) Stats() Stats {
	if l == nil {
		return Stats{}
	}
	return Stats{
		Appends: l.appends.Load(),
		Syncs:   l.syncs.Load(),
		Bytes:   l.bytes.Load(),
	}
}

// File names inside a log directory. The meta file is the directory's
// identity: magic+version, shard count, CRC. A shard-count mismatch is a
// hard error — effects are tagged by shard index, so replaying into a
// different layout would scatter keys.
const (
	metaName = "wal.meta"
	logName  = "log.wal"
	snapName = "log.snap"
)

var metaMagic = [8]byte{'o', 'e', 'w', 'a', 'l', '0', '0', '2'}

// oldLogName is shard 0's file in the per-shard format 001, which
// created every shard's file when it opened a directory.
const oldLogName = "shard-0000.wal"

// VersionError reports a directory written in an older log format: a
// meta file with a previous magic, or the per-shard files of format
// 001. Open and Scan refuse such a directory rather than misread or
// overwrite it; recover it with the build that wrote it.
type VersionError struct {
	Dir   string
	Found string // the meta magic or old-format file name found
}

func (e *VersionError) Error() string {
	return fmt.Sprintf("wal: %s holds an unsupported log format (found %q, this build reads %q)", e.Dir, e.Found, metaMagic[:])
}

// writeMeta creates the meta file.
func writeMeta(dir string, shards int) error {
	buf := make([]byte, 0, 16)
	buf = append(buf, metaMagic[:]...)
	buf = binary.BigEndian.AppendUint32(buf, uint32(shards))
	buf = binary.BigEndian.AppendUint32(buf, checksum(buf))
	tmp := filepath.Join(dir, metaName+".tmp")
	if err := os.WriteFile(tmp, buf, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, filepath.Join(dir, metaName))
}

// readMeta parses the meta file, returning the shard count, after
// refusing a directory of an older format.
func readMeta(dir string) (int, error) {
	if _, err := os.Stat(filepath.Join(dir, oldLogName)); err == nil {
		return 0, &VersionError{Dir: dir, Found: oldLogName}
	}
	b, err := os.ReadFile(filepath.Join(dir, metaName))
	if err != nil {
		return 0, err
	}
	if len(b) >= 8 && string(b[:5]) == "oewal" && [8]byte(b[:8]) != metaMagic {
		return 0, &VersionError{Dir: dir, Found: string(b[:8])}
	}
	if len(b) != 16 || [8]byte(b[:8]) != metaMagic {
		return 0, fmt.Errorf("wal: %s: not a wal meta file", metaName)
	}
	if checksum(b[:12]) != binary.BigEndian.Uint32(b[12:]) {
		return 0, fmt.Errorf("wal: %s: checksum mismatch", metaName)
	}
	return int(binary.BigEndian.Uint32(b[8:])), nil
}

// Open opens (creating if necessary) the log in dir, recovers the
// existing contents, truncates any torn tail, and returns the log
// positioned for appends together with the recovered state to replay. A
// fresh directory yields an empty Replay.
func Open(dir string, o Options) (*Log, *Replay, error) {
	if o.Shards < 1 || o.Shards > maxShard {
		return nil, nil, fmt.Errorf("wal: shard count %d out of range [1, %d]", o.Shards, maxShard)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, err
	}
	switch n, err := readMeta(dir); {
	case err == nil:
		if n != o.Shards {
			return nil, nil, fmt.Errorf("wal: %s has %d shards, store wants %d", dir, n, o.Shards)
		}
	case os.IsNotExist(err):
		if err := writeMeta(dir, o.Shards); err != nil {
			return nil, nil, err
		}
	default:
		return nil, nil, err
	}

	rp, err := scan(dir, o.Shards, true)
	if err != nil {
		return nil, nil, err
	}
	f, err := os.OpenFile(filepath.Join(dir, logName), os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, nil, err
	}
	if err = f.Truncate(rp.end); err == nil {
		_, err = f.Seek(rp.end, 0)
	}
	if err == nil && o.Fsync {
		err = syncDir(dir)
	}
	if err != nil {
		f.Close()
		return nil, nil, err
	}
	l := &Log{dir: dir, fsync: o.Fsync, locks: make([]commitLock, o.Shards), f: f}
	l.cond = sync.NewCond(&l.fmu)
	l.seq = rp.lastSeq()
	l.durable = l.seq
	return l, rp, nil
}

// syncDir fsyncs a directory so created/renamed entries survive power
// loss.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// Lock acquires shard's commit lock. The caller runs the shard's
// transaction, appends the record it commits, and releases with Unlock
// before calling Sync.
func (l *Log) Lock(shard int) { l.locks[shard].Lock() }

// Unlock releases shard's commit lock.
func (l *Log) Unlock(shard int) { l.locks[shard].Unlock() }

// Seq returns the last assigned sequence number. Under every commit lock
// (as Store.Snapshot reads it) no append is in flight, so it is the exact
// log position of the state those locks freeze.
func (l *Log) Seq() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.seq
}

// Append buffers one record carrying effects and returns its sequence
// number. The caller holds the commit lock of every effect's shard, so
// the record takes its place in each of those shards' commit order; a
// multi-key mutation is one record, so no torn tail can split it.
//
//compose:noalloc
func (l *Log) Append(effects []Effect) uint64 {
	l.mu.Lock()
	l.seq++
	seq := l.seq
	l.buf = appendFrame(l.buf, seq, effects)
	l.mu.Unlock()
	l.appends.Add(1)
	return seq
}

// AppendPut buffers a one-put record on shard. Callers must hold the
// shard's commit lock.
//
//compose:noalloc
func (l *Log) AppendPut(shard int, key, val int64) uint64 {
	e := [1]Effect{{Shard: shard, Key: key, Val: val}}
	return l.Append(e[:])
}

// Sync blocks until the records through seq are durable (written;
// fsynced when the log was opened with Fsync), grouping concurrent
// committers of every shard into shared flushes: the first waiter
// becomes the leader, swaps the buffer for the spare, writes the whole
// batch in one write(2), and broadcasts; later committers ride the next
// batch. It should not be called while holding a commit lock, which
// would stall the shard behind the I/O. The first I/O error is sticky:
// every subsequent Sync reports it.
//
// The shard argument is unused — sequences are global — and kept for
// callers that pass one.
func (l *Log) Sync(_ int, seq uint64) error {
	l.fmu.Lock()
	for l.durable < seq && l.err == nil {
		if l.flushing {
			l.cond.Wait()
			continue
		}
		l.flushing = true
		spare := l.spare
		l.spare = nil
		l.fmu.Unlock()

		l.mu.Lock()
		batch := l.buf
		top := l.seq
		l.buf = spare[:0]
		l.mu.Unlock()

		var err error
		if len(batch) > 0 {
			var n int
			n, err = l.f.Write(batch)
			if err == nil && l.fsync {
				err = l.f.Sync()
			}
			// Count only durable work: the bytes Write reported written,
			// and the flush only when it fully succeeded — a failed
			// flush must not inflate the wal_* CSV columns.
			l.bytes.Add(uint64(n))
			if err == nil {
				l.syncs.Add(1)
			}
		}

		l.fmu.Lock()
		l.spare = batch[:0]
		l.flushing = false
		if err != nil {
			l.err = err
		} else if top > l.durable {
			l.durable = top
		}
		l.cond.Broadcast()
	}
	err := l.err
	l.fmu.Unlock()
	return err
}

// Close flushes the pending records and closes the file.
func (l *Log) Close() error {
	if l == nil {
		return nil
	}
	err := l.Sync(0, l.Seq())
	if cerr := l.f.Close(); err == nil {
		err = cerr
	}
	return err
}
