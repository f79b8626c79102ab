package store

import (
	"oestm/internal/eec"
	"oestm/internal/specexec"
	"oestm/internal/stm"
	"oestm/internal/wal"
)

// applyChunk bounds how many staged groups one apply transaction covers
// — the same amortization MPut gets from flat nesting, without letting a
// 256-transaction batch become one giant read/write set.
const applyChunk = 64

// group is one staged effect group of a batch — a transaction's
// validated write set: its effects (an [lo:hi) window of the Applier's
// effects arena — indices, not pointers, so arena growth cannot dangle),
// the coordinator (its lowest participant shard), and, for a group of
// more than one effect, the transaction id allocated under the
// participants' commit locks.
type group struct {
	txid   uint64
	lo, hi int32
	coord  int
}

// applyRun is one worker slot's pre-bound apply context: the thread,
// the enclosing-transaction kind, and the chunk window the pre-built
// closure reads — no per-batch closures on the commit path.
type applyRun struct {
	a      *Applier
	th     *stm.Thread
	kind   stm.Kind
	fn     func(stm.Tx) error
	sh     int
	groups []int32
}

// BaseReader is a committed-state point reader bound to one worker
// slot's thread (specexec.Base).
type BaseReader struct {
	st *Store
	th *stm.Thread
}

// ReadBase returns the committed value under key — one single-shard
// elastic transaction on the slot's own thread. The scheduler
// guarantees it never runs concurrently with commit application.
//
//compose:noalloc
func (b *BaseReader) ReadBase(key int64) (int64, bool) {
	return b.st.shard(key).Get(b.th, int(key))
}

// Applier commits validated specexec batches into the store and its
// WAL: specexec.Committer over per-shard parallel jobs, walking the
// commit pipeline (commit.go) once per batch instead of once per
// operation. It takes every touched shard's commit lock at once,
// allocates composition transaction ids in batch order under those
// locks, lets the shard jobs apply state and append records
// independently, then releases the locks and group-commits each shard.
// Holding all the locks across the whole commit phase gives batch mode
// the exact invariants recovery relies on: per-shard log order equals
// commit order equals batch order, id order matches log order on shards
// two compositions share, and a snapshot (which also takes all locks)
// can never cut through half a composition's evidence.
//
// Methods must be called in the specexec.Committer sequence; Begin,
// Stage, Jobs and Finish run on the dispatcher, RunJob on the worker
// pool (disjoint shards, so jobs never contend).
type Applier struct {
	st      *Store
	threads []*stm.Thread
	runs    []applyRun
	bases   []BaseReader

	staged  [][]int32 // per shard: the groups touching it, in batch order
	touched []int     // ascending — the lock acquisition order
	groups  []group
	effects []wal.Effect // arena the groups' windows index into
	seqs    []uint64     // per-touched-shard sync targets
	walErr  error        // sticky first log I/O error (see WALErr)
}

// NewApplier builds an applier for workers+1 worker slots (slot
// `workers` is the dispatcher's); newThread supplies each slot's
// engine thread, configured like a connection's (contention manager
// included).
func NewApplier(s *Store, workers int, newThread func() *stm.Thread) *Applier {
	a := &Applier{
		st:      s,
		threads: make([]*stm.Thread, workers+1),
		runs:    make([]applyRun, workers+1),
		bases:   make([]BaseReader, workers+1),
		staged:  make([][]int32, len(s.shards)),
	}
	for w := range a.threads {
		th := newThread()
		a.threads[w] = th
		a.bases[w] = BaseReader{st: s, th: th}
		r := &a.runs[w]
		r.a = a
		r.th = th
		r.kind = eec.OpKind(th)
		r.fn = func(stm.Tx) error { r.applyBody(); return nil }
	}
	return a
}

// Base returns worker slot w's committed-state reader.
func (a *Applier) Base(w int) *BaseReader { return &a.bases[w] }

// Threads returns the worker slots' engine threads, for telemetry
// merges (read them only between batches — e.g. from the executor's
// AfterBatch hook).
func (a *Applier) Threads() []*stm.Thread { return a.threads }

// WALErr returns the applier's sticky first log I/O error (nil while
// every acknowledged batch reached the log). Read it after a batch's
// Finish — the executor's Done callbacks run after Finish, so response
// routing sees it in time.
func (a *Applier) WALErr() error { return a.walErr }

// Begin resets the staging state for a batch.
func (a *Applier) Begin(int) {
	for _, sh := range a.touched {
		a.staged[sh] = a.staged[sh][:0]
	}
	a.touched = a.touched[:0]
	a.groups = a.groups[:0]
	a.effects = a.effects[:0]
}

// Stage buckets transaction i's validated write set onto its shards, in
// batch order, as one effect group — logged by the same rule as a
// conn-mode operation with the same effects (appendRecords). In unsound
// mode every write is its own group, preserving the crash-tearing
// ablation on disk.
func (a *Applier) Stage(_ int, writes []specexec.WriteDesc) {
	if a.st.unsound {
		for j := range writes {
			a.stage(writes[j : j+1])
		}
		return
	}
	a.stage(writes)
}

// stage appends one effect group.
func (a *Applier) stage(writes []specexec.WriteDesc) {
	if len(writes) == 0 {
		return
	}
	s := a.st
	g := group{lo: int32(len(a.effects)), coord: len(s.shards)}
	gi := int32(len(a.groups))
	for _, w := range writes {
		sh := s.ShardOf(w.Key)
		a.effects = append(a.effects, wal.Effect{Remove: w.Remove, Delta: w.Delta, Shard: sh, Key: w.Key, Val: w.Val})
		g.coord = min(g.coord, sh)
		// Per-shard telemetry: batch mode counts the committed write set
		// (speculative reads and re-executions don't route to shards in
		// any attributable way; conn mode counts every key-operation).
		s.sc[sh].ops.Add(1)
		if w.Delta {
			s.adds.Add(1)
		}
		if on := a.staged[sh]; len(on) == 0 || on[len(on)-1] != gi {
			a.staged[sh] = append(on, gi)
			a.touched = insertShard(a.touched, sh)
		}
	}
	g.hi = int32(len(a.effects))
	a.groups = append(a.groups, g)
}

// Jobs locks every touched shard and allocates the batch's composition
// transaction ids in batch order under those locks, then reports the
// job count — one job per touched shard.
func (a *Applier) Jobs() int {
	a.st.lockShards(a.touched)
	if w := a.st.wal; w != nil {
		for i := range a.groups {
			if g := &a.groups[i]; g.hi-g.lo > 1 {
				g.txid = w.NextTxID()
			}
		}
	}
	a.seqs = a.seqs[:0]
	for range a.touched {
		a.seqs = append(a.seqs, 0)
	}
	return len(a.touched)
}

// RunJob applies job's shard: state mutations in staged (= batch)
// order through chunked flat-nested transactions on the worker slot's
// thread, then the shard's log records in the same order under the
// already-held commit lock.
func (a *Applier) RunJob(worker, job int) {
	sh := a.touched[job]
	on := a.staged[sh]
	r := &a.runs[worker]
	r.sh = sh
	for lo := 0; lo < len(on); lo += applyChunk {
		r.groups = on[lo:min(lo+applyChunk, len(on))]
		_ = r.th.Atomic(r.kind, r.fn)
	}
	r.groups = nil
	if a.st.wal != nil {
		for _, gi := range on {
			g := &a.groups[gi]
			a.seqs[job] = a.st.appendRecords(sh, g.coord, g.txid, a.effects[g.lo:g.hi])
		}
	}
}

// applyBody applies one chunk of the current shard job — each group's
// shard-local effects — inside the enclosing transaction (flat nesting,
// like MPut's body). Deltas fold into the committed value here: the
// commutativity already paid off in the speculation rounds (blind adds
// never invalidate), so the commit path applies them as ordinary
// read-modify-writes in batch order.
func (r *applyRun) applyBody() {
	a := r.a
	for _, gi := range r.groups {
		g := &a.groups[gi]
		for i := g.lo; i < g.hi; i++ {
			if ef := &a.effects[i]; ef.Shard == r.sh {
				a.st.apply(r.th, ef)
			}
		}
	}
}

// Finish releases the commit locks and group-commits every touched
// shard through its sync target. It runs on the dispatcher, so the
// sticky error is visible to the Done callbacks that follow it.
func (a *Applier) Finish() {
	a.st.unlockShards(a.touched)
	a.st.syncShards(a.touched, a.seqs, &a.walErr)
}
