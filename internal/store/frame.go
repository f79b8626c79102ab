package store

import (
	"runtime"

	"oestm/internal/boost"
	"oestm/internal/eec"
	"oestm/internal/stm"
	"oestm/internal/wal"
)

// Frame is the per-connection (per-thread) operation context of a Store:
// it owns the pre-bound transaction closures of the operations and the
// descriptor fields they read, so the steady-state request path starts no
// per-call closures and allocates no per-transaction frames — the
// store-layer counterpart of the e.e.c operation frame. A Frame must
// only be used from the one goroutine that owns its thread, one
// operation at a time.
//
// Values travel as int64 and live as int64 in the shard maps' value
// words, so every operation on an existing key — reads, overwrites,
// removes, deltas, whatever the value — is allocation-free (pinned by the
// conformance tests here and end-to-end in internal/server); only an
// insert allocates, the skip-list node it links in. Keys use the platform
// int inside the shards; like the rest of the repository's word-level
// budgets this assumes 64-bit ints.
type Frame struct {
	st  *Store
	th  *stm.Thread
	bth *boost.Thread // the frame's thread in the store's boosting domain

	// kind is the enclosing-transaction kind of the composed mutators
	// (elastic where the engine supports it, like every e.e.c
	// composition).
	kind stm.Kind

	// The operation in flight — the descriptor the commit pipeline
	// (commit.go) and the read path walk: its class and keys, the hot
	// counters resolve found for them, and for mutations the pre-bound
	// transaction body (nil = the single effect is an elementary eec
	// operation) and the effect list that becomes the log record.
	class   opClass
	keys    []int64
	hcs     []*hotCounter
	body    func(stm.Tx) error
	effects []wal.Effect
	fused   bool // running inside a boosted transaction holding hcs' locks
	killed  int  // leading hcs an absolute operation folded and killed
	expect  int64
	// Results: a read's outputs (the caller's buffers), and what the last
	// elementary effect found: the key's presence and the value it
	// displaced.
	vals []int64
	oks  []bool
	prev int64
	hit  bool
	// Scratch backing the key/value slices of single-key operations.
	k1, v1 [2]int64
	ok1    [1]bool
	foldEf wal.Effect

	readFn, applyFn, camFn, foldFn func(stm.Tx) error
	fusedFn, fusedReadFn           func(*boost.Tx) error

	// WAL state: the sorted unique participant shards of the mutation in
	// flight (scratch reused across operations, so the logging path stays
	// allocation-free once grown) and the highest sequence this frame has
	// appended, WALErr's group-commit target.
	wShards []int
	wSeq    uint64
	// err is the sticky give-up of a pipeline walk (see Err).
	err error
}

// NewFrame binds a frame for th. One frame per connection: the server
// creates it next to the connection's thread and reuses it for every
// request. th's retry bound (stm.Thread.MaxRetries, set before the call)
// also bounds the frame's abstract-lock retries, so it covers every
// transaction of every operation.
func (s *Store) NewFrame(th *stm.Thread) *Frame {
	f := &Frame{st: s, th: th, kind: eec.OpKind(th), bth: s.bt.NewThread()}
	f.bth.MaxRetries = th.MaxRetries
	f.readFn = func(tx stm.Tx) error { f.readBody(tx); return nil }
	f.applyFn = func(stm.Tx) error { f.applyBody(); return nil }
	f.camFn = func(stm.Tx) error { f.camBody(); return nil }
	f.foldFn = func(stm.Tx) error { f.st.apply(f.th, &f.foldEf); return nil }
	f.fusedFn = f.fusedBody
	f.fusedReadFn = f.fusedReadBody
	return f
}

// Err returns the frame's sticky give-up: nil while every operation since
// the last ClearErr took effect. Otherwise one of them stopped retrying —
// the thread's retry bound ran out or the thread was cancelled — and its
// outputs must be discarded. A sound operation that gave up changed no
// key; an unsound split keeps the pieces that ran before the give-up. The
// error is the thread's (*stm.RetryExhaustedError or *stm.CancelledError)
// or the boosting thread's exhaustion, which the thread does not see.
func (f *Frame) Err() error {
	if f.err != nil {
		return f.err
	}
	return f.th.Err()
}

// ClearErr clears the give-up, and with it any cancellation of the
// thread (stm.Thread.ClearErr).
func (f *Frame) ClearErr() {
	f.err = nil
	f.th.ClearErr()
}

// noteOp credits one key-operation to key's shard and attributes the
// aborts the thread suffered since a0 (a snapshot of f.th.Stats.Aborts
// taken at operation start, on this same goroutine) to that shard. The
// telemetry is counter-increment-only: the request path's allocation
// pins include it.
//
//compose:noalloc
func (f *Frame) noteOp(key int64, a0 uint64) {
	c := &f.st.sc[f.st.ShardOf(key)]
	c.ops.Add(1)
	if ab := f.th.Stats.Aborts - a0; ab != 0 {
		c.aborts.Add(ab)
	}
}

// noteComposed credits one key-operation per key and attributes the
// composition's aborts to its first key's shard: the conflict may span
// shards, but a single deterministic owner keeps the per-shard abort
// totals exact (summing to the merged abort counter) and the hot path
// one atomic per key.
//
//compose:noalloc
func (f *Frame) noteComposed(keys []int64, a0 uint64) {
	if len(keys) == 0 {
		return
	}
	st := f.st
	for _, k := range keys {
		st.sc[st.ShardOf(k)].ops.Add(1)
	}
	if ab := f.th.Stats.Aborts - a0; ab != 0 {
		st.sc[st.ShardOf(keys[0])].aborts.Add(ab)
	}
}

// WALErr is the frame's durability point: it group-commits the log
// through every record the frame has appended and returns the log's
// sticky first I/O error (nil without a log). A frame's mutations are
// durable once WALErr returns nil; the server calls it once per turn,
// before any response leaves. Until some frame's WALErr (or the log's
// Close) flushes them, appended records wait in the log's buffer. Once the log has failed, every call
// reports that error — whichever frame appended — and the server answers
// mutations with a typed durability error instead of success, while the
// in-memory state keeps serving reads.
//
//compose:noalloc
func (f *Frame) WALErr() error {
	if f.st.wal == nil {
		return nil
	}
	return f.st.wal.Sync(0, f.wSeq)
}

// Get returns the value under key and whether it is present: one
// single-shard elastic transaction for a plain key; base + overlay at
// one instant, under the abstract lock, for a promoted counter (which
// logically exists once a committed delta created it — even while later
// deltas cancel the sum back to zero).
//
//compose:noalloc
func (f *Frame) Get(key int64) (v int64, ok bool) {
	a0 := f.th.Stats.Aborts
	if f.st.hotOf(key) == nil {
		v, ok = f.getRaw(key)
	} else {
		f.k1[0] = key
		f.class, f.keys, f.vals, f.oks = classRead, f.k1[:1], f.v1[:1], f.ok1[:]
		f.read()
		v, ok = f.v1[0], f.ok1[0]
	}
	f.noteOp(key, a0)
	return v, ok
}

// getRaw reads key's base entry — the bare single-shard transaction,
// blind to hot-key overlays.
//
//compose:noalloc
func (f *Frame) getRaw(key int64) (int64, bool) {
	return f.st.shard(key).Get(f.th, int(key))
}

// MGet fills vals[i], oks[i] with the value and presence of keys[i] for
// every key, as one atomic snapshot across all shards touched: a single
// Regular transaction reading the shard maps directly (see the package
// comment for why it is not a composition of Get children). vals and oks
// must be at least len(keys) long; they are the caller's reusable
// buffers. In unsound mode every key is read in its own transaction.
func (f *Frame) MGet(keys []int64, vals []int64, oks []bool) {
	if f.st.unsound {
		// The split pieces go through the public operations, which count
		// each key-operation themselves — no outer noteComposed, or the
		// shards would double-count.
		for i, k := range keys {
			vals[i], oks[i] = f.Get(k)
		}
		return
	}
	a0 := f.th.Stats.Aborts
	f.class, f.keys, f.vals, f.oks = classRead, keys, vals, oks
	f.read()
	f.noteComposed(keys, a0)
	f.keys, f.vals, f.oks = nil, nil, nil
}

// read runs the read in flight. With none of its keys promoted it is the
// plain one-transaction snapshot. Otherwise the frame first acquires the
// abstract lock of every hot key it covers, then takes the snapshot of
// the bases and folds the locked overlays in: holding every hot key's
// lock is what makes the result a consistent cut — a composed MAdd over
// any of these keys is either entirely before (its overlays all visible)
// or entirely after (blocked on the locks). A key that turns hot after
// the re-check in fusedReadBody is harmless: a composed MAdd pairing it
// with a locked key blocks on that lock until this read commits, and one
// touching no locked key leaves every folded overlay and snapshotted
// base untouched — the read linearizes before it.
func (f *Frame) read() {
	for {
		if !f.resolve() {
			_ = f.th.Atomic(stm.Regular, f.readFn) // a give-up is in th.Err()
			return
		}
		if err := f.bth.Atomic(f.fusedReadFn); err != errHotDead {
			if err != nil {
				f.err = err
			}
			return
		}
	}
}

// fusedReadBody is read's boosted transaction.
func (f *Frame) fusedReadBody(tx *boost.Tx) error {
	if err := f.acquire(tx); err != nil {
		return err
	}
	if f.promoted() {
		return errHotDead
	}
	if err := f.th.Atomic(stm.Regular, f.readFn); err != nil {
		return err
	}
	for i, hc := range f.hcs {
		if hc != nil {
			f.vals[i] += hc.overlay
			f.oks[i] = f.oks[i] || hc.exists
		}
	}
	return nil
}

// readBody is the transactional body of a read.
//
//compose:noalloc
func (f *Frame) readBody(tx stm.Tx) {
	for i, k := range f.keys {
		f.vals[i], f.oks[i] = f.st.shard(k).GetTx(tx, int(k))
	}
}

// Put stores val under key, reporting whether the key already existed —
// one single-shard elastic transaction, logged as one put record (durable
// once WALErr returns nil, when the store has a WAL).
func (f *Frame) Put(key, val int64) bool {
	f.elementary(key, val, false)
	return f.hit
}

// Remove deletes key, returning the removed value and whether the key
// was present — Put's shape; a miss mutates nothing and writes no
// record.
func (f *Frame) Remove(key int64) (int64, bool) {
	f.elementary(key, 0, true)
	return f.prev, f.hit
}

// elementary commits a one-effect absolute mutation whose body is the
// elementary eec operation itself. The outcome lands in f.prev/f.hit.
func (f *Frame) elementary(key, val int64, remove bool) {
	a0 := f.th.Stats.Aborts
	f.k1[0], f.v1[0] = key, val
	f.stage(classAbsolute, f.k1[:1], f.v1[:1])
	f.effects[0].Remove = remove
	f.body = nil
	f.commit()
	f.noteOp(key, a0)
}

// composed commits the staged mutation as one composed operation: body
// runs as one enclosing transaction (Fig. 5 — elementary operations
// atomic through outheritance, flat nesting on the classic engines).
func (f *Frame) composed(body func(stm.Tx) error, a0 uint64) {
	f.body = body
	f.commit()
	f.noteComposed(f.keys, a0)
	f.keys = nil
}

// applyBody is the transactional body of the mutations whose effects are
// known up front (MPut, Add, MAdd): apply them all.
func (f *Frame) applyBody() {
	for i := range f.effects {
		f.st.apply(f.th, &f.effects[i])
	}
}

// MPut stores vals[i] under keys[i] for every key as one transaction —
// Put compositions across shards. vals must be at least len(keys) long.
// In unsound mode every entry is stored in its own transaction (and
// logged as its own record — a crash between pieces leaves the tear on
// disk, which is exactly what the crashtest ablation asserts the audits
// catch).
func (f *Frame) MPut(keys, vals []int64) {
	if f.st.unsound {
		for i, k := range keys {
			f.Put(k, vals[i])
		}
		return
	}
	a0 := f.th.Stats.Aborts
	f.stage(classAbsolute, keys, vals)
	f.composed(f.applyFn, a0)
}

// CompareAndMove atomically relocates a value between keys — across
// shards, in the general case: if the value under from equals expect and
// to is absent, it removes from and stores the value under to, reporting
// whether the move happened. One composed transaction (Get, Get, Remove,
// Put children); in unsound mode the four elementary operations run as
// separate transactions, so audits can observe the value in flight (or
// duplicated) between them. It reports false both when the move was
// refused and when the operation gave up (see Err).
func (f *Frame) CompareAndMove(from, to, expect int64) bool {
	if from == to {
		return false
	}
	if f.st.unsound {
		if v, ok := f.Get(from); !ok || v != expect {
			return false
		}
		// A Get that gave up reads garbage: check before acting on either.
		if _, occupied := f.Get(to); occupied || f.Err() != nil {
			return false
		}
		// Yield between check and act: the split has no lock spanning
		// them, and the ablation exists to be caught tearing there, which
		// needs a window scheduling alone rarely opens.
		runtime.Gosched()
		f.Remove(from)
		f.Put(to, expect)
		return f.Err() == nil
	}
	a0 := f.th.Stats.Aborts
	f.k1[0], f.k1[1] = from, to
	f.class, f.keys, f.expect = classAbsolute, f.k1[:2], expect
	f.composed(f.camFn, a0)
	return f.Err() == nil && len(f.effects) != 0
}

// camBody is the transactional body of CompareAndMove. Whether the move
// happens is only known here, so the effects are staged here too (afresh
// on every attempt): a refused move mutates nothing and logs nothing.
// The moved value is expect by construction, so the redo effects are
// concrete blind writes.
func (f *Frame) camBody() {
	from, to := f.keys[0], f.keys[1]
	f.effects = f.effects[:0]
	if v, ok := f.getRaw(from); !ok || v != f.expect {
		return
	}
	if _, occupied := f.getRaw(to); occupied {
		return
	}
	f.effects = append(f.effects,
		wal.Effect{Remove: true, Shard: f.st.ShardOf(from), Key: from},
		wal.Effect{Shard: f.st.ShardOf(to), Key: to, Val: f.expect})
	f.applyBody()
}

// Add atomically adds delta to the counter under key, creating it (from
// zero) if absent: on the overlay when the key is promoted, as a composed
// read-modify-write of the base otherwise — logged as one add record
// either way, so replay re-applies the delta rather than a stale
// absolute value. In BoostAuto mode the read-modify-write's abort count
// feeds the escalation tracker, and crossing the threshold promotes the
// key. In unsound mode the read and the write run as separate top-level
// transactions, so a concurrent add between them is lost — the update
// tear the counter-fanin checker catches.
func (f *Frame) Add(key, delta int64) {
	f.k1[0], f.v1[0] = key, delta
	f.MAdd(f.k1[:1], f.v1[:1])
}

// MAdd atomically adds deltas[i] to the counter under keys[i] for every
// entry, as one composition across shards — Add's two executions over N
// keys, logged like MPut with delta effects. In unsound mode every entry
// splits like unsound Add. deltas must be at least len(keys) long.
func (f *Frame) MAdd(keys, deltas []int64) {
	s := f.st
	s.adds.Add(uint64(len(keys)))
	if s.unsound {
		for i, k := range keys {
			v, _ := f.Get(k)
			if f.Err() != nil {
				return // v is garbage
			}
			f.Put(k, v+deltas[i])
		}
		return
	}
	if len(keys) == 0 {
		return
	}
	a0 := f.th.Stats.Aborts
	f.stage(classDelta, keys, deltas)
	f.composed(f.applyFn, a0)
	if f.Err() == nil && !f.fused && len(keys) == 1 && s.boostMode == BoostAuto &&
		s.trackAdd(keys[0], f.th.Stats.Aborts-a0) {
		s.promote(keys[0])
	}
}
