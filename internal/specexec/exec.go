package specexec

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// Txn is one transaction of a batch. Speculate runs the transaction's
// logic against the view; it may be invoked several times (once per
// incarnation) and must be deterministic given its reads: route every
// key access through the view, derive every output only from view
// reads, and keep no side effects outside the receiver's own fields
// (which a later attempt simply overwrites). When a read hits an
// unresolved dependency the view returns zero values and voids the
// attempt — outputs computed from them are discarded with it.
type Txn interface {
	Speculate(v *View)
}

// Base is a committed-state reader. One is built per worker slot
// (Config.NewBase); the scheduler guarantees base reads never run
// concurrently with commit application, so a snapshot-free point
// reader is sufficient.
type Base interface {
	ReadBase(key int64) (int64, bool)
}

// Committer applies a validated batch in batch order. The call
// sequence per batch is: Begin(n); Stage(i, writes) for i = 0..n-1 in
// order; Jobs(); RunJob for each job (possibly in parallel, each job
// exactly once, worker slots in [0, Workers]); Finish. Stage's writes
// slice is only valid until Finish returns. Jobs must be independent —
// the store groups by shard — and each job must apply its staged
// effects in staged order, which is batch order.
type Committer interface {
	Begin(n int)
	Stage(i int, writes []WriteDesc)
	Jobs() int
	RunJob(worker, job int)
	Finish()
}

// Config parameterises an Executor.
type Config struct {
	// Workers is the speculation worker-pool size (0 = 1). The
	// dispatcher participates in every phase too, and NewBase is
	// called with slots 0..Workers inclusive — slot Workers is the
	// dispatcher's.
	Workers int
	// MaxBatch caps how many queued transactions one batch drains
	// (0 = DefaultMaxBatch).
	MaxBatch int
	// NewBase builds the committed-state reader of worker slot w,
	// w in [0, Workers].
	NewBase func(w int) Base
	// Committer applies validated write sets (required).
	Committer Committer
	// Done is invoked for every transaction of a batch, in batch
	// order, after the batch committed (and, with a durable
	// committer, after Finish made it durable). It runs on the
	// dispatcher goroutine — keep it small (count, or wake the
	// submitter).
	Done func(t Txn)
	// AfterBatch, when non-nil, runs on the dispatcher after each
	// batch's Done callbacks, e.g. to snapshot worker-thread
	// telemetry.
	AfterBatch func()
}

// DefaultMaxBatch bounds one batch when Config.MaxBatch is zero.
const DefaultMaxBatch = 256

// Stats is the executor's cumulative speculation telemetry.
type Stats struct {
	// Batches is the number of batches committed.
	Batches uint64
	// Execs counts Speculate attempts (first executions included).
	Execs uint64
	// Reexecs counts attempts beyond a transaction's first — the
	// re-execution cost of speculation (dependency misses and
	// validation failures both land here when they re-run).
	Reexecs uint64
	// ValidationFails counts completed attempts whose read set failed
	// validation against lower-indexed writes.
	ValidationFails uint64
}

// phase kinds.
const (
	phaseExec = iota
	phaseValidate
	phaseCommit
)

// phase is the worker pool's current parallel phase: a work list
// consumed through a shared atomic cursor. One phase struct is reused;
// each phase is a full barrier over the pool (remaining counts
// workers, not items), so no worker can still be draining a stale
// cursor when the dispatcher rewrites the struct for the next phase.
type phase struct {
	kind      int
	items     []int32
	next      atomic.Int32
	remaining atomic.Int32 // pool workers yet to finish the phase
}

// slot is one batch index's scheduling state.
type slot struct {
	txn    Txn
	inc    int32       // incarnation of the current/last attempt
	dep    bool        // last attempt hit an ESTIMATE (attempt void)
	valid  bool        // last validation verdict
	reads  []ReadDesc  // read set of the last completed attempt
	writes []WriteDesc // write set being built by the running attempt
	pub    []WriteDesc // published write set (last completed attempt)
	hasPub bool
}

// View is the layered read/write surface a Speculate attempt sees.
// Views are per-worker and reused; all methods must be called from the
// attempt's goroutine only.
type View struct {
	ex   *Executor
	base Base
	s    *slot
	idx  int32
	dep  bool
	solo bool // single-transaction batch: bypass the mv map entirely
}

// Read returns the value under key and whether it is present, layering
// own writes over lower transactions' published writes over the
// committed base, with blind deltas at every layer combining into the
// first absolute value below them (a delta chain with no absolute below
// creates the key from zero). After an unresolved dependency (Aborted)
// it returns zeros.
//
//compose:noalloc
func (v *View) Read(key int64) (int64, bool) {
	if v.dep {
		return 0, false
	}
	// Own writes: trailing deltas sum onto the own absolute write below
	// them, or fall through to the layers beneath.
	var ownSum int64
	var ownCnt int32
	w := v.s.writes
	for i := len(w) - 1; i >= 0; i-- {
		if w[i].Key != key {
			continue
		}
		if w[i].Delta {
			ownSum += w[i].Val
			ownCnt++
			continue
		}
		if w[i].Remove {
			return ownSum, ownCnt > 0
		}
		return w[i].Val + ownSum, true
	}
	if !v.solo {
		e, dsum, dcnt, status := v.ex.mv.read(key, v.idx)
		switch status {
		case mvEstimate:
			v.dep = true
			return 0, false
		case mvHit:
			v.s.reads = append(v.s.reads, ReadDesc{Key: key,
				Ver: Version{Txn: e.txn, Inc: e.inc}, DeltaSum: dsum, DeltaCnt: dcnt})
			if e.remove {
				return dsum + ownSum, dcnt+ownCnt > 0
			}
			return e.val + dsum + ownSum, true
		}
		val, ok := v.base.ReadBase(key)
		v.s.reads = append(v.s.reads, ReadDesc{Key: key,
			Ver: Version{Txn: BaseTxn}, DeltaSum: dsum, DeltaCnt: dcnt})
		return val + dsum + ownSum, ok || dcnt+ownCnt > 0
	}
	val, ok := v.base.ReadBase(key)
	return val + ownSum, ok || ownCnt > 0
}

// Write records a put of val under key in the attempt's write set.
//
//compose:noalloc
func (v *View) Write(key, val int64) {
	v.s.writes = append(v.s.writes, WriteDesc{Key: key, Val: val})
}

// Add records a blind commutative delta in the attempt's write set: no
// read, no version observed, so concurrent adds to the same key can
// never invalidate each other.
//
//compose:noalloc
func (v *View) Add(key, delta int64) {
	v.s.writes = append(v.s.writes, WriteDesc{Key: key, Val: delta, Delta: true})
}

// Delete records a removal of key in the attempt's write set.
//
//compose:noalloc
func (v *View) Delete(key int64) {
	v.s.writes = append(v.s.writes, WriteDesc{Key: key, Remove: true})
}

// Aborted reports whether the attempt hit an unresolved dependency;
// loops over many keys can early-out on it.
func (v *View) Aborted() bool { return v.dep }

// Executor runs batches. Create with New, start with Start, feed with
// Submit/SubmitAll, stop with Close.
type Executor struct {
	cfg Config
	mv  mvMap

	qmu     sync.Mutex
	qcond   *sync.Cond
	pending []Txn
	closed  bool

	pmu     sync.Mutex
	pcond   *sync.Cond
	pgen    uint64
	pclosed bool
	ph      phase
	doneCh  chan struct{}

	batch    []Txn
	slots    []slot
	views    []View
	bases    []Base
	allItems []int32 // identity list 0..len-1, grown monotonically
	exeItems []int32
	jobItems []int32 // identity list for commit jobs

	batches atomic.Uint64
	execs   atomic.Uint64
	reexecs atomic.Uint64
	vfails  atomic.Uint64

	dispatchDone chan struct{}
	wg           sync.WaitGroup
}

// New validates cfg and builds an executor (not running yet).
func New(cfg Config) (*Executor, error) {
	if cfg.NewBase == nil || cfg.Committer == nil {
		return nil, fmt.Errorf("specexec: Config.NewBase and Config.Committer are required")
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 1
	}
	if cfg.MaxBatch <= 0 {
		cfg.MaxBatch = DefaultMaxBatch
	}
	e := &Executor{cfg: cfg}
	e.qcond = sync.NewCond(&e.qmu)
	e.pcond = sync.NewCond(&e.pmu)
	e.doneCh = make(chan struct{}, 1)
	e.dispatchDone = make(chan struct{})
	e.mv.init()
	e.views = make([]View, cfg.Workers+1)
	e.bases = make([]Base, cfg.Workers+1)
	for w := 0; w <= cfg.Workers; w++ {
		e.bases[w] = cfg.NewBase(w)
	}
	return e, nil
}

// Start launches the worker pool and the dispatcher.
func (e *Executor) Start() {
	for w := 0; w < e.cfg.Workers; w++ {
		e.wg.Add(1)
		go e.worker(w)
	}
	go e.dispatch()
}

// Close drains and stops the executor: every transaction submitted
// before Close completes (its Done fires), then the dispatcher and the
// workers exit. Submit must not be called after (or concurrently with)
// Close.
func (e *Executor) Close() {
	e.qmu.Lock()
	e.closed = true
	e.qmu.Unlock()
	e.qcond.Broadcast()
	<-e.dispatchDone
	e.pmu.Lock()
	e.pclosed = true
	e.pmu.Unlock()
	e.pcond.Broadcast()
	e.wg.Wait()
}

// Stats snapshots the cumulative speculation counters.
func (e *Executor) Stats() Stats {
	return Stats{
		Batches:         e.batches.Load(),
		Execs:           e.execs.Load(),
		Reexecs:         e.reexecs.Load(),
		ValidationFails: e.vfails.Load(),
	}
}

// Submit queues one transaction.
func (e *Executor) Submit(t Txn) {
	e.qmu.Lock()
	e.pending = append(e.pending, t)
	e.qmu.Unlock()
	e.qcond.Signal()
}

// SubmitAll queues a burst under one lock acquisition, which is also
// what makes the burst land in one batch.
func (e *Executor) SubmitAll(ts []Txn) {
	if len(ts) == 0 {
		return
	}
	e.qmu.Lock()
	e.pending = append(e.pending, ts...)
	e.qmu.Unlock()
	e.qcond.Signal()
}

// dispatch is the batch loop: drain the queue (up to MaxBatch), run
// the batch, repeat until closed and empty.
func (e *Executor) dispatch() {
	defer close(e.dispatchDone)
	for {
		e.qmu.Lock()
		for len(e.pending) == 0 && !e.closed {
			e.qcond.Wait()
		}
		if len(e.pending) == 0 {
			e.qmu.Unlock()
			return
		}
		n := len(e.pending)
		if n > e.cfg.MaxBatch {
			n = e.cfg.MaxBatch
		}
		e.batch = append(e.batch[:0], e.pending[:n]...)
		rest := copy(e.pending, e.pending[n:])
		for i := rest; i < len(e.pending); i++ {
			e.pending[i] = nil // release Txn references
		}
		e.pending = e.pending[:rest]
		e.qmu.Unlock()
		e.runBatch(e.batch)
		for i := range e.batch {
			e.batch[i] = nil
		}
	}
}

// worker is one pool goroutine: wait for a phase generation, consume
// items through the shared cursor, check out of the phase barrier.
func (e *Executor) worker(w int) {
	defer e.wg.Done()
	var gen uint64
	for {
		e.pmu.Lock()
		for e.pgen == gen && !e.pclosed {
			e.pcond.Wait()
		}
		if e.pclosed {
			e.pmu.Unlock()
			return
		}
		gen = e.pgen
		kind := e.ph.kind
		items := e.ph.items
		e.pmu.Unlock()
		e.consume(w, kind, items)
		if e.ph.remaining.Add(-1) == 0 {
			e.doneCh <- struct{}{}
		}
	}
}

// consume drains the phase's work list from worker slot w.
func (e *Executor) consume(w, kind int, items []int32) {
	for {
		i := int(e.ph.next.Add(1)) - 1
		if i >= len(items) {
			return
		}
		switch kind {
		case phaseExec:
			e.execOne(w, items[i])
		case phaseValidate:
			e.validateOne(items[i])
		case phaseCommit:
			e.cfg.Committer.RunJob(w, int(items[i]))
		}
	}
}

// runPhase executes one parallel phase over items and blocks until
// every pool worker checked out of it. The barrier counts workers,
// not items, so the cursor is exhausted — every item processed — and
// no worker can be left holding the shared phase struct when the next
// phase rewrites it. Single-item phases and single-worker pools run
// inline on the dispatcher (worker slot Workers) without waking the
// pool.
func (e *Executor) runPhase(kind int, items []int32) {
	if len(items) == 0 {
		return
	}
	if len(items) == 1 || e.cfg.Workers == 1 {
		w := e.cfg.Workers
		for _, it := range items {
			switch kind {
			case phaseExec:
				e.execOne(w, it)
			case phaseValidate:
				e.validateOne(it)
			case phaseCommit:
				e.cfg.Committer.RunJob(w, int(it))
			}
		}
		return
	}
	e.pmu.Lock()
	e.ph.kind = kind
	e.ph.items = items
	e.ph.next.Store(0)
	e.ph.remaining.Store(int32(e.cfg.Workers))
	e.pgen++
	e.pmu.Unlock()
	e.pcond.Broadcast()
	e.consume(e.cfg.Workers, kind, items) // the dispatcher helps
	<-e.doneCh
}

// identity extends ident (an index-identity list 0,1,2,...) to at
// least n entries and returns it; callers slice [:n].
func identity(ident []int32, n int) []int32 {
	for len(ident) < n {
		ident = append(ident, int32(len(ident)))
	}
	return ident
}

// runBatch speculates, validates and commits one batch.
func (e *Executor) runBatch(batch []Txn) {
	n := len(batch)
	if cap(e.slots) < n {
		s := make([]slot, n)
		copy(s, e.slots[:cap(e.slots)])
		e.slots = s
	}
	e.slots = e.slots[:n]
	e.allItems = identity(e.allItems, n)
	for i := 0; i < n; i++ {
		s := &e.slots[i]
		s.txn = batch[i]
		s.inc = 0
		s.dep = false
		s.valid = false
		s.hasPub = false
		s.reads = s.reads[:0]
		s.writes = s.writes[:0]
		s.pub = s.pub[:0]
	}

	if n == 1 {
		e.runSolo()
	} else {
		e.runSpec(n)
	}

	c := e.cfg.Committer
	c.Begin(n)
	for i := 0; i < n; i++ {
		c.Stage(i, e.slots[i].pub)
	}
	if jobs := c.Jobs(); jobs > 0 {
		e.jobItems = identity(e.jobItems, jobs)
		e.runPhase(phaseCommit, e.jobItems[:jobs])
	}
	c.Finish()
	e.batches.Add(1)
	for i := 0; i < n; i++ {
		e.slots[i].txn = nil
		if e.cfg.Done != nil {
			e.cfg.Done(batch[i])
		}
	}
	if e.cfg.AfterBatch != nil {
		e.cfg.AfterBatch()
	}
}

// runSolo executes a single-transaction batch inline: no mv map, no
// validation (nothing can invalidate it), write set committed as-is.
func (e *Executor) runSolo() {
	s := &e.slots[0]
	v := &e.views[e.cfg.Workers]
	*v = View{ex: e, base: e.bases[e.cfg.Workers], s: s, idx: 0, solo: true}
	s.txn.Speculate(v)
	e.execs.Add(1)
	s.pub, s.writes = s.writes, s.pub[:0]
}

// runSpec runs the execute/validate rounds of an n-transaction batch
// until a validation round passes cleanly.
func (e *Executor) runSpec(n int) {
	e.mv.reset()
	e.exeItems = append(e.exeItems[:0], e.allItems[:n]...)
	round := 0
	for len(e.exeItems) > 0 {
		e.runPhase(phaseExec, e.exeItems)
		e.execs.Add(uint64(len(e.exeItems)))
		if round > 0 {
			e.reexecs.Add(uint64(len(e.exeItems)))
		}
		e.runPhase(phaseValidate, e.allItems[:n])
		e.exeItems = e.exeItems[:0]
		var vfails uint64
		for i := 0; i < n; i++ {
			s := &e.slots[i]
			if s.valid {
				continue
			}
			if !s.dep {
				vfails++
			}
			// Leave ESTIMATE markers on every published write so
			// higher readers dependency-miss instead of consuming a
			// doomed value while the re-execution is in flight.
			for _, w := range s.pub {
				e.mv.markEstimate(w.Key, int32(i))
			}
			s.inc++
			e.exeItems = append(e.exeItems, int32(i))
		}
		e.vfails.Add(vfails)
		round++
	}
}

// execOne runs one Speculate attempt on worker slot w and publishes
// its write set (or leaves the previous publication marked ESTIMATE on
// a dependency miss).
func (e *Executor) execOne(w int, idx int32) {
	s := &e.slots[idx]
	s.dep = false
	s.reads = s.reads[:0]
	s.writes = s.writes[:0]
	v := &e.views[w]
	*v = View{ex: e, base: e.bases[w], s: s, idx: idx}
	s.txn.Speculate(v)
	if v.dep {
		s.dep = true
		return
	}
	// Publish each key's FINAL portrait only. An attempt that writes a
	// key twice must never expose an intermediate value: it would carry
	// the same (txn, incarnation) version as the final one, so a reader
	// that caught it would pass validation with a value serial execution
	// can never observe. With deltas in the mix the portrait is the
	// composition of the key's write sequence: trailing deltas fold onto
	// the last absolute write (an absolute entry), deltas over a removal
	// re-create the key absolutely, and an all-delta sequence publishes
	// one summed delta entry — keeping the entry blind, so readers above
	// still combine it with whatever lower transactions decide.
	for i := len(s.writes) - 1; i >= 0; i-- {
		wr := s.writes[i]
		if containsKey(s.writes[i+1:], wr.Key) {
			continue
		}
		var sum int64
		var cnt int32
		published := false
		for j := i; j >= 0; j-- {
			ww := s.writes[j]
			if ww.Key != wr.Key {
				continue
			}
			if ww.Delta {
				sum += ww.Val
				cnt++
				continue
			}
			switch {
			case !ww.Remove:
				e.mv.write(wr.Key, idx, s.inc, ww.Val+sum, false, false)
			case cnt > 0:
				e.mv.write(wr.Key, idx, s.inc, sum, false, false)
			default:
				e.mv.write(wr.Key, idx, s.inc, 0, true, false)
			}
			published = true
			break
		}
		if !published {
			e.mv.write(wr.Key, idx, s.inc, sum, false, true)
		}
	}
	if s.hasPub {
		// Retract stale versions the new attempt no longer writes.
		for _, old := range s.pub {
			if !containsKey(s.writes, old.Key) {
				e.mv.drop(old.Key, idx)
			}
		}
	}
	s.pub, s.writes = s.writes, s.pub[:0]
	s.hasPub = true
}

//compose:noalloc
func containsKey(ws []WriteDesc, key int64) bool {
	for i := range ws {
		if ws[i].Key == key {
			return true
		}
	}
	return false
}

// validateOne re-reads slot idx's read descriptors at its index: valid
// iff every descriptor observes the identical anchoring version — same
// (txn, incarnation) for map hits, still a base read for base reads,
// never an ESTIMATE — and the identical delta chain above it, compared
// by sum and count rather than by version. Delta incarnations are
// deliberately invisible here: a re-executed add republishes the same
// blind delta, the sums match, and the reader stays valid — delta
// traffic on a hot key can never fail a reader's validation unless the
// observable value actually changed. Dependency-missed attempts are
// invalid outright.
//
//compose:noalloc
func (e *Executor) validateOne(idx int32) {
	s := &e.slots[idx]
	if s.dep {
		s.valid = false
		return
	}
	for i := range s.reads {
		r := &s.reads[i]
		cur, dsum, dcnt, status := e.mv.read(r.Key, idx)
		if dsum != r.DeltaSum || dcnt != r.DeltaCnt {
			s.valid = false
			return
		}
		switch status {
		case mvMiss:
			if r.Ver.Txn != BaseTxn {
				s.valid = false
				return
			}
		case mvEstimate:
			s.valid = false
			return
		default:
			if r.Ver.Txn != cur.txn || r.Ver.Inc != cur.inc {
				s.valid = false
				return
			}
		}
	}
	s.valid = true
}
