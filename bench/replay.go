package main

import (
	"os"
	"time"

	"oestm/internal/cm"
	"oestm/internal/core"
	"oestm/internal/stm"
	"oestm/internal/store"
	"oestm/internal/wal"
	"oestm/internal/wire"
)

// inproc is a store built the way a compose-server with default flags
// builds its own — the oestm engine, the default contention policy, the
// default shard count, adaptive boosting, and a WAL without fsync when a
// directory is given — with one frame on it, as one connection has.
type inproc struct {
	tm  stm.TM
	st  *store.Store
	fr  *store.Frame
	log *wal.Log // nil without a WAL
	dir string

	vals []int64 // MGet scratch
	oks  []bool
}

func newInproc(walDir string, boost store.BoostMode) (*inproc, error) {
	p := &inproc{tm: core.New(), dir: walDir, vals: make([]int64, span), oks: make([]bool, span)}
	if walDir != "" {
		var err error
		if p.log, _, err = wal.Open(walDir, wal.Options{Shards: store.DefaultShards}); err != nil {
			return nil, err
		}
	}
	p.st = store.New(store.Config{WAL: p.log, Boost: boost})
	p.fr = p.st.NewFrame(p.thread())
	return p, nil
}

// thread makes a thread as the server makes one per connection.
func (p *inproc) thread() *stm.Thread {
	th := stm.NewThread(p.tm)
	th.CM = cm.MustNew(cm.DefaultName)
	return th
}

// close closes the log and removes its directory.
func (p *inproc) close() error {
	err := p.log.Close() // nil-receiver safe
	if p.dir != "" {
		if rerr := os.RemoveAll(p.dir); err == nil {
			err = rerr
		}
	}
	return err
}

// prefill stores w's initial keyspace, as the served set-up does.
func (p *inproc) prefill(w *workload) {
	for k := int64(0); k < int64(w.keys); k++ {
		if w.prefilled(k) {
			p.fr.Put(k, w.initial(k))
		}
	}
}

// exec runs one decoded request on the frame and fills r, the way the
// server's request switch does for keys it has validated.
func (p *inproc) exec(q *wire.Request, r *wire.Response) {
	*r = wire.Response{Present: r.Present[:0], Vals: r.Vals[:0], Status: wire.StatusOK}
	fr := p.fr
	switch q.Op {
	case wire.OpGet:
		v, ok := fr.Get(q.Key)
		if !ok {
			r.Status = wire.StatusNotFound
		}
		r.Val = v
	case wire.OpPut:
		r.Flag = fr.Put(q.Key, q.Val)
	case wire.OpRemove:
		r.Val, r.Flag = fr.Remove(q.Key)
	case wire.OpCompareAndMove:
		r.Flag = fr.CompareAndMove(q.Key, q.To, q.Val)
	case wire.OpMGet:
		n := len(q.Keys)
		fr.MGet(q.Keys, p.vals[:n], p.oks[:n])
		r.Vals = append(r.Vals, p.vals[:n]...)
		r.Present = append(r.Present, p.oks[:n]...)
	case wire.OpMPut:
		fr.MPut(q.Keys, q.Vals)
	case wire.OpAdd:
		fr.Add(q.Key, q.Val)
	case wire.OpMAdd:
		fr.MAdd(q.Keys, q.Vals)
	}
}

// opCost is what the replay charged to each layer for one opcode.
type opCost struct {
	n                    int
	decode, exec, encode time.Duration
}

// sum is the opcode's mean in-process cost per request, in microseconds.
func (c opCost) sum() float64 {
	return (c.decode + c.exec + c.encode).Seconds() * 1e6 / float64(max(c.n, 1))
}

// timerCost is the cost of one time.Since, which every timed stage of the
// replay includes once.
func timerCost() time.Duration {
	const n = 1 << 16
	t0 := time.Now()
	var sink time.Duration
	for i := 0; i < n; i++ {
		sink += time.Since(t0)
	}
	_ = sink
	return time.Since(t0) / n
}

// replay pushes the first n requests of stream through the unrolled
// request path on one goroutine — wire.decode_req, store.exec.<op>,
// wire.encode_resp — and returns each opcode's cost per layer. What the
// server spends on a request beyond this (socket, loop, scheduling,
// telemetry) is the residue the report names.
func replay(walDir string, w *workload, stream []reqDesc, n int) (costs [wire.NumOps]opCost, err error) {
	p, err := newInproc(walDir, store.BoostAuto)
	if err != nil {
		return costs, err
	}
	defer func() {
		if cerr := p.close(); err == nil {
			err = cerr
		}
	}()
	p.prefill(w)
	timer := timerCost()
	var (
		q, dq wire.Request
		r     wire.Response
		body  []byte
		out   []byte
	)
	for i := 0; i < n; i++ {
		d := stream[i%len(stream)]
		w.expand(d, &q)
		body = wire.AppendRequest(body[:0], &q)
		t0 := time.Now()
		if err := dq.Decode(body); err != nil {
			return costs, err
		}
		t1 := time.Since(t0)
		p.exec(&dq, &r)
		t2 := time.Since(t0)
		out = wire.AppendResponse(wire.BeginFrame(out[:0]), dq.Op, &r)
		if err := wire.FinishFrame(out); err != nil {
			return costs, err
		}
		t3 := time.Since(t0)
		c := &costs[d.op]
		c.n++
		c.decode += max(t1-timer, 0)
		c.exec += max(t2-t1-timer, 0)
		c.encode += max(t3-t2-timer, 0)
	}
	return costs, p.fr.WALErr()
}
