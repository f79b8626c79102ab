package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"oestm/internal/wire"
)

// loadWorker is one connection's closed loop over its pre-generated
// stream.
type loadWorker struct {
	recorder
	outcome
	w      *workload
	c      *client
	stream []reqDesc
	pos    int
	cur    []reqDesc // the burst in flight
	sums   []int64   // counters: acknowledged delta per key
}

func newLoadWorker(w *workload, c *client, stream []reqDesc) *loadWorker {
	lw := &loadWorker{w: w, c: c, stream: stream, cur: make([]reqDesc, w.pipeline)}
	if w.counters {
		lw.sums = make([]int64, w.keys)
	}
	return lw
}

// run issues bursts until stop is set.
func (lw *loadWorker) run(epoch time.Time, stop *atomic.Bool) error {
	for !stop.Load() {
		if err := lw.burst(epoch); err != nil {
			return fmt.Errorf("connection failed: %w", err)
		}
	}
	return nil
}

var burstSpans = []string{"wire.encode_req", "server.wait", "wire.decode_resp"}

// burst sends the stream's next pipeline requests with one write, reads
// every response, then decodes and checks them.
func (lw *loadWorker) burst(epoch time.Time) error {
	c, w := lw.c, lw.w
	t0 := time.Since(epoch)
	c.out = c.out[:0]
	for i := range lw.cur {
		d := lw.stream[lw.pos]
		if lw.pos++; lw.pos == len(lw.stream) {
			lw.pos = 0
		}
		lw.cur[i] = d
		w.expand(d, &c.req)
		c.out = appendFrame(c.out, &c.req)
	}
	var t1, t2 time.Duration
	if lw.tr != nil {
		t1 = time.Since(epoch)
	}
	lw.attempted += len(lw.cur)
	if err := c.send(); err != nil {
		return err
	}
	if err := c.recv(len(lw.cur)); err != nil {
		return err
	}
	if lw.tr != nil {
		t2 = time.Since(epoch)
	}
	for i, d := range lw.cur {
		if err := lw.check(d, c.frames[i]); err != nil {
			lw.fail(err.Error())
		}
	}
	t3 := time.Since(epoch)
	s := sample{end: int64(t3), dur: clampNS(t3 - t0)}
	if lw.tr != nil {
		s.enc, s.wait, s.dec = clampNS(t1-t0), clampNS(t2-t1), clampNS(t3-t2)
		lw.tr.record(burstSpans, []int64{int64(t0), int64(t1), int64(t2), int64(t3)})
	}
	lw.samples = append(lw.samples, s)
	return nil
}

// check decodes one response and verifies what can be known without the
// server's state: the status and shape the opcode allows, and that every
// value read is one some write stores. An acknowledged delta is added to
// the worker's per-key sums for the final audit.
func (lw *loadWorker) check(d reqDesc, body []byte) error {
	r := &lw.c.resp
	if err := r.Decode(d.op, body); err != nil {
		return fmt.Errorf("%s: %w", d.op, err)
	}
	w := lw.w
	value := func(v int64) error {
		if !w.counters && !validValue(v) {
			return fmt.Errorf("%s: read %d, which no request writes", d.op, v)
		}
		return nil
	}
	if r.Status != wire.StatusOK && !(d.op == wire.OpGet && r.Status == wire.StatusNotFound) {
		return fmt.Errorf("%s: status %d", d.op, r.Status)
	}
	switch d.op {
	case wire.OpGet:
		if r.Status == wire.StatusOK {
			return value(r.Val)
		}
	case wire.OpRemove:
		if r.Flag {
			return value(r.Val)
		}
	case wire.OpMGet:
		if len(r.Vals) != span {
			return fmt.Errorf("mget: %d values for %d keys", len(r.Vals), span)
		}
		for i, v := range r.Vals {
			if r.Present[i] {
				if err := value(v); err != nil {
					return err
				}
			}
		}
	case wire.OpAdd, wire.OpMAdd:
		q := &lw.c.req
		w.expand(d, q)
		if d.op == wire.OpAdd {
			lw.sums[q.Key] += q.Val
		}
		for i, k := range q.Keys {
			lw.sums[k] += q.Vals[i]
		}
	}
	return nil
}

// serving is one set-up serving stack: the server child, a control
// connection and the load connections.
type serving struct {
	env    *env
	w      *workload
	srv    *server
	ctl    *client
	conns  []*client
	walDir string
}

var serverSeq atomic.Int64

// serverLog names a fresh log file: term looks for the drain line of one
// server, so servers do not share logs.
func (e *env) serverLog(w *workload) string {
	return filepath.Join(e.outDir, fmt.Sprintf("server-%s-%d.log", w.name, serverSeq.Add(1)))
}

// setUp spawns the server, waits until it answers, prefills the keyspace
// and dials the load connections; the time all that takes is the
// workload's set-up time.
func setUp(e *env, w *workload) (*serving, time.Duration, error) {
	t0 := time.Now()
	s := &serving{env: e, w: w}
	if w.wal {
		dir, err := os.MkdirTemp(e.outDir, "wal-")
		if err != nil {
			return nil, 0, err
		}
		s.walDir = dir
	}
	var err error
	if s.srv, err = startServer(e.serverBin, s.walDir, e.serverLog(w)); err != nil {
		s.srv = nil
		s.tearDown()
		return nil, 0, err
	}
	if s.ctl, err = dial(s.srv.addr); err == nil {
		err = s.ctl.prefill(w)
	}
	for i := 0; err == nil && i < workers; i++ {
		var c *client
		if c, err = dial(s.srv.addr); err == nil {
			s.conns = append(s.conns, c)
		}
	}
	if err != nil {
		s.tearDown()
		return nil, 0, err
	}
	return s, time.Since(t0), nil
}

func (s *serving) closeConns() {
	if s.ctl != nil {
		s.ctl.close()
		s.ctl = nil
	}
	for _, c := range s.conns {
		c.close()
	}
	s.conns = nil
}

// tearDown stops the stack: connections closed, server drained (the
// drain is checked), WAL directory removed.
func (s *serving) tearDown() error {
	s.closeConns()
	var err error
	if s.srv != nil {
		err = s.srv.term()
		s.srv = nil
	}
	if s.walDir != "" {
		if rerr := os.RemoveAll(s.walDir); err == nil {
			err = rerr
		}
	}
	return err
}

// scrape reads the server's cumulative counters, the CPU time nearest the
// window: last when opening it, first when closing it.
func (s *serving) scrape(closing bool) (c counters, err error) {
	if closing {
		if c.cpu, err = s.srv.cpuSeconds(); err != nil {
			return c, err
		}
	}
	if c.alloc, err = s.srv.totalAlloc(); err != nil {
		return c, err
	}
	if err = s.ctl.stats(&c.st); err != nil {
		return c, err
	}
	if !closing {
		c.cpu, err = s.srv.cpuSeconds()
	}
	return c, err
}

// scrapeAllocates measures, on the idle server, how many bytes one
// reading of its allocation counter makes it allocate: a window's two
// readings put about one reading's worth inside the window, which on a
// workload that allocates little is several percent of the total.
func (s *serving) scrapeAllocates() (uint64, error) {
	var a [3]uint64
	for i := range a {
		var err error
		if a[i], err = s.srv.totalAlloc(); err != nil {
			return 0, err
		}
	}
	return a[2] - a[1], nil // the first reading warms the handler up
}

// verify audits the server's final state once the load has stopped; each
// key checked counts as one attempt. Counters must equal the
// acknowledged deltas exactly; key-value stores must hold only values
// some request writes; a durable store must come back from a crash with
// the keyspace it had.
func (s *serving) verify(lws []*loadWorker) (o outcome, err error) {
	w := s.w
	vals, present, err := s.ctl.dump(w)
	if err != nil {
		return o, err
	}
	o.attempted = w.keys
	for k := range vals {
		switch {
		case w.counters:
			var want int64
			for _, lw := range lws {
				want += lw.sums[k]
			}
			if !present[k] || vals[k] != want {
				o.fail(fmt.Sprintf("counter %d holds %d (present %v), acknowledged deltas sum to %d", k, vals[k], present[k], want))
			}
		case present[k] && !validValue(vals[k]):
			o.fail(fmt.Sprintf("key %d holds %d, which no request writes", k, vals[k]))
		}
	}
	if !w.wal {
		return o, nil
	}

	// Crash: SIGKILL leaves only what the WAL's write(2)s handed to the
	// kernel. Every request was acknowledged before the dump, so the
	// restarted server must rebuild exactly the dumped keyspace.
	s.closeConns()
	s.srv.kill()
	if s.srv, err = startServer(s.env.serverBin, s.walDir, s.env.serverLog(w)); err != nil {
		s.srv = nil
		return o, fmt.Errorf("restart on the WAL: %w", err)
	}
	if s.ctl, err = dial(s.srv.addr); err != nil {
		return o, err
	}
	rvals, rpresent, err := s.ctl.dump(w)
	if err != nil {
		return o, err
	}
	o.attempted += w.keys
	for k := range vals {
		if rpresent[k] != present[k] || rvals[k] != vals[k] {
			o.fail(fmt.Sprintf("key %d recovered as %d (present %v), was %d (present %v) before the crash",
				k, rvals[k], rpresent[k], vals[k], present[k]))
		}
	}
	return o, nil
}
