package store

import (
	"fmt"
	"math"
	"math/bits"
	"sort"
	"sync/atomic"

	"oestm/internal/boost"
	"oestm/internal/eec"
	"oestm/internal/stm"
	"oestm/internal/wal"
)

// DefaultShards is the shard count used when Config.Shards is zero.
const DefaultShards = 16

// Config parameterises a Store. The zero value gives DefaultShards sound
// shards.
type Config struct {
	// Shards is the shard count; it must be a power of two (0 means
	// DefaultShards). More shards shrink the keys that collide on one
	// skip list, not the atomicity unit: composed operations span shards
	// freely.
	Shards int
	// Unsound splits every composed operation into separate top-level
	// transactions, deliberately breaking cross-shard atomicity (the
	// checker-validation baseline; see the package comment).
	Unsound bool
	// WAL, when non-nil, makes every committed mutation durable: frames
	// append to the shard's log under its commit lock and acknowledge
	// only after group commit (see internal/wal). The log's shard count
	// must equal the store's.
	WAL *wal.Log
	// Boost selects the commutative hot-key path's mode for Add/MAdd
	// (see BoostMode; the zero value is BoostOff). Unsound mode forces
	// it off — split transactions are the point there.
	Boost BoostMode
}

// Store is a sharded transactional key-value map: int64 keys hashed onto
// power-of-two shards, int64 values. All operations go through a Frame
// (one per connection/thread).
type Store struct {
	shards  []*eec.SkipListMap
	shift   uint // key hash >> shift = shard index
	unsound bool
	wal     *wal.Log // nil = in-memory only

	// Commutative hot-key path (see hot.go): the boosting domain whose
	// abstract locks guard promoted counters, the per-shard hot tables,
	// and the exported counters behind BoostStats.
	boostMode  BoostMode
	bt         *boost.TM
	hot        []shardHot
	adds       atomic.Uint64
	boostedOps atomic.Uint64

	hotPromotions atomic.Uint64
	hotDemotions  atomic.Uint64

	// sc is the per-shard request-path telemetry (see shardCounters),
	// surfaced through the stats payload's per-shard block.
	sc []shardCounters
}

// shardCounters is one shard's request-path telemetry: key-operations
// routed to the shard, and aborted transaction attempts attributed to
// it (a composed operation's aborts land on its first key's shard — see
// Frame.noteComposed). Padded out to a cache line of its own so shards
// hammering their counters don't false-share with their neighbours.
type shardCounters struct {
	ops    atomic.Uint64
	aborts atomic.Uint64
	_      [48]byte
}

// shardMix is the Fibonacci hashing multiplier (2^64/φ): sequential keys
// spread over all shards, so a hot key *range* still fans out.
const shardMix = 0x9e3779b97f4a7c15

// New builds an empty store. It panics if cfg.Shards is not a power of
// two.
func New(cfg Config) *Store {
	n := cfg.Shards
	if n == 0 {
		n = DefaultShards
	}
	if n < 1 || n&(n-1) != 0 {
		panic(fmt.Sprintf("store: shard count %d is not a power of two", n))
	}
	if cfg.WAL != nil && cfg.WAL.Shards() != n {
		panic(fmt.Sprintf("store: wal has %d shards, store has %d", cfg.WAL.Shards(), n))
	}
	s := &Store{
		shards:    make([]*eec.SkipListMap, n),
		shift:     uint(64 - bits.Len(uint(n-1))),
		unsound:   cfg.Unsound,
		wal:       cfg.WAL,
		boostMode: cfg.Boost,
		bt:        boost.New(true),
		hot:       make([]shardHot, n),
		sc:        make([]shardCounters, n),
	}
	if cfg.Unsound {
		s.boostMode = BoostOff
	}
	for i := range s.shards {
		s.shards[i] = eec.NewSkipListMap()
	}
	return s
}

// Shards returns the shard count.
func (s *Store) Shards() int { return len(s.shards) }

// ShardOf returns the shard index serving key.
func (s *Store) ShardOf(key int64) int {
	if len(s.shards) == 1 {
		return 0
	}
	return int((uint64(key) * shardMix) >> s.shift)
}

// shard returns the map serving key.
func (s *Store) shard(key int64) *eec.SkipListMap {
	return s.shards[s.ShardOf(key)]
}

// ValidKey reports whether key can be stored: the two extreme int64
// values are the skip lists' head/tail sentinels and are rejected at the
// protocol boundary.
func ValidKey(key int64) bool {
	return key != math.MinInt64 && key != math.MaxInt64
}

// WAL returns the store's log (nil for an in-memory store).
func (s *Store) WAL() *wal.Log { return s.wal }

// ShardCounters snapshots shard i's telemetry: key-operations routed to
// the shard, aborted attempts attributed to it, and the number of
// currently promoted hot counters (a gauge, not a cumulative count).
func (s *Store) ShardCounters(i int) (ops, aborts, hotKeys uint64) {
	if n := s.hot[i].count.Load(); n > 0 {
		hotKeys = uint64(n)
	}
	return s.sc[i].ops.Load(), s.sc[i].aborts.Load(), hotKeys
}

// Recover replays a recovered log into the store's shards — fresh maps
// only, before any frame serves requests: the snapshot, then the log's
// valid prefix past it, one effect at a time (wal.Replay.Apply). Log
// order is each key's commit order, and a composition is one record, so
// the recovered keyspace is the state after some prefix of the commits
// and never shows a torn composition. th drives the replay transactions;
// it is the caller's (the server boots one thread for this).
func (s *Store) Recover(th *stm.Thread, rp *wal.Replay) {
	rp.Apply(func(e *wal.Effect) { s.apply(th, e) })
}

// Snapshot writes a snapshot through the store's log: it takes every
// shard's commit lock at once (ascending, the same order composed
// operations use), reads the log position, dumps each shard's contents
// in one atomic read transaction, releases the locks, and hands the cut
// to wal.Log.WriteSnapshot. Holding all the commit locks means no
// mutation is mid-append anywhere, so the snapshot is exactly the state
// after the records through that position. A no-op without a log.
func (s *Store) Snapshot(th *stm.Thread) error {
	w := s.wal
	if w == nil {
		return nil
	}
	n := len(s.shards)
	for i := 0; i < n; i++ {
		w.Lock(i)
	}
	seq := w.Seq()
	var entries []wal.Entry
	for i := 0; i < n; i++ {
		entries = s.dumpShard(th, i, entries)
	}
	for i := n - 1; i >= 0; i-- {
		w.Unlock(i)
	}
	return w.WriteSnapshot(seq, entries)
}

// dumpShard appends one shard's full contents to out, read in one atomic
// snapshot, folding the pending overlay of every promoted counter into
// its entry.
// The caller holds every shard's commit lock, and overlays are only
// mutated under their shard's commit lock, so the overlay values belong
// to exactly the log cut the snapshot records: an add logged before the
// cut is in its overlay (or folded base) here, one logged after is not.
func (s *Store) dumpShard(th *stm.Thread, i int, out []wal.Entry) []wal.Entry {
	h := &s.hot[i]
	var overlays map[int64]int64
	if h.count.Load() != 0 {
		h.mu.RLock()
		for k, hc := range h.keys {
			// exists with a zero overlay still matters: a counter created
			// by deltas that netted to zero is present at 0, and the
			// snapshot must record that presence if the base is absent.
			if hc.overlay != 0 || hc.exists {
				if overlays == nil {
					overlays = make(map[int64]int64)
				}
				overlays[k] = hc.overlay
			}
		}
		h.mu.RUnlock()
	}
	s.shards[i].Range(th, func(key int, val int64) bool {
		if d, ok := overlays[int64(key)]; ok {
			val += d
			delete(overlays, int64(key))
		}
		out = append(out, wal.Entry{Key: int64(key), Val: val})
		return true
	})
	// Promoted counters with no base entry yet: their overlay is the
	// whole value. Sorted so the snapshot bytes stay deterministic for a
	// given state.
	if len(overlays) > 0 {
		start := len(out)
		for k, d := range overlays {
			out = append(out, wal.Entry{Key: k, Val: d})
		}
		tail := out[start:]
		sort.Slice(tail, func(a, b int) bool { return tail[a].Key < tail[b].Key })
	}
	return out
}
