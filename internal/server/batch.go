package server

import (
	"sync"

	"oestm/internal/cm"
	"oestm/internal/specexec"
	"oestm/internal/stm"
	"oestm/internal/store"
	"oestm/internal/wire"
)

// Execution models (Config.Exec).
const (
	// ExecConn serves each connection's requests on its own goroutine
	// against an engine frame — the goroutine-per-connection model.
	ExecConn = "conn"
	// ExecBatch routes every request through the speculative batch
	// executor: a connection's pipelined burst is decoded whole,
	// submitted as one batch, executed optimistically in parallel
	// across the worker pool, validated, and committed in arrival
	// order (internal/specexec).
	ExecBatch = "batch"
)

// batchEngine is the server's speculative execution backend: the
// executor, the store applier it commits through, and the worker-thread
// telemetry snapshot the stats endpoint merges.
type batchEngine struct {
	srv     *Server
	exec    *specexec.Executor
	applier *store.Applier

	// mu guards stm, a snapshot of the applier threads' cumulative
	// transaction counters refreshed after every batch (the threads
	// themselves are only quiescent between batches).
	mu  sync.Mutex
	stm stm.Stats
}

// newBatchEngine builds the applier and executor for a batch-mode
// server. Workers and maxBatch come from Config (already defaulted).
func newBatchEngine(s *Server, workers, maxBatch int) (*batchEngine, error) {
	b := &batchEngine{srv: s}
	b.applier = store.NewApplier(s.st, workers, func() *stm.Thread {
		th := stm.NewThread(s.tm)
		th.CM = cm.MustNew(s.cmName)
		return th
	})
	ex, err := specexec.New(specexec.Config{
		Workers:   workers,
		MaxBatch:  maxBatch,
		NewBase:   func(w int) specexec.Base { return b.applier.Base(w) },
		Committer: b.applier,
		Done:      b.done,
		AfterBatch: func() {
			var agg stm.Stats
			for _, th := range b.applier.Threads() {
				agg.Add(th.Stats)
			}
			b.mu.Lock()
			b.stm = agg
			b.mu.Unlock()
		},
	})
	if err != nil {
		return nil, err
	}
	b.exec = ex
	return b, nil
}

// done routes one committed transaction back to its connection: the
// last task of a burst wakes the waiting handler. It runs on the
// dispatcher after Finish, so the handler's subsequent reads of task
// results and the applier's sticky WAL error are ordered after the
// commit.
func (b *batchEngine) done(t specexec.Txn) {
	c := t.(*request).c
	if c.pending.Add(-1) == 0 {
		c.doneCh <- struct{}{}
	}
}

// threadStats returns the applier threads' transaction counters as of
// the last completed batch.
func (b *batchEngine) threadStats() stm.Stats {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.stm
}

// Speculate maps the request onto the batch view, mirroring conn.exec's
// semantics exactly: same flags, same values, same writes — so batch and
// conn mode are byte-identical on the wire. Re-run per incarnation; every
// field it writes is derived from view reads alone.
func (t *request) Speculate(v *specexec.View) {
	q, r := &t.req, &t.resp
	switch q.Op {
	case wire.OpGet:
		var ok bool
		r.Val, ok = v.Read(q.Key)
		r.Status = wire.StatusOK
		if !ok {
			r.Status = wire.StatusNotFound
		}
	case wire.OpPut:
		_, r.Flag = v.Read(q.Key)
		v.Write(q.Key, q.Val)
	case wire.OpRemove:
		if r.Val, r.Flag = v.Read(q.Key); r.Flag {
			// A miss mutates nothing and writes no record, like
			// Frame.Remove.
			v.Delete(q.Key)
		}
	case wire.OpCompareAndMove:
		r.Flag = false
		if q.Key == q.To {
			return
		}
		val, ok := v.Read(q.Key)
		if !ok || val != q.Val || v.Aborted() {
			return
		}
		if _, occupied := v.Read(q.To); occupied || v.Aborted() {
			return
		}
		v.Delete(q.Key)
		v.Write(q.To, val)
		r.Flag = true
	case wire.OpMGet:
		r.Vals, r.Present = r.Vals[:0], r.Present[:0]
		for _, k := range q.Keys {
			if v.Aborted() {
				return
			}
			val, ok := v.Read(k)
			r.Vals = append(r.Vals, val)
			r.Present = append(r.Present, ok)
		}
	case wire.OpMPut:
		for i, k := range q.Keys {
			v.Write(k, q.Vals[i])
		}
	case wire.OpAdd:
		// Blind delta: no read, so same-key adds across the batch can
		// never invalidate each other — the commutativity win the hot-key
		// path buys conn mode shows up here as zero validation fails.
		v.Add(q.Key, q.Val)
	case wire.OpMAdd:
		for i, k := range q.Keys {
			v.Add(k, q.Vals[i])
		}
	}
}

// runBurst submits the burst's store-bound requests as one unit and
// blocks until every one of them committed.
func (c *conn) runBurst(n int) {
	c.burst = c.burst[:0]
	for _, t := range c.reqs[:n] {
		if t.runs {
			c.burst = append(c.burst, t)
		}
	}
	if len(c.burst) == 0 {
		return
	}
	c.pending.Store(int32(len(c.burst)))
	c.srv.batch.exec.SubmitAll(c.burst)
	<-c.doneCh
	for i := range c.burst {
		c.burst[i] = nil
	}
}
