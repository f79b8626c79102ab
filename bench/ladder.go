package main

import (
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"oestm"
	"oestm/internal/mvar"
	"oestm/internal/specexec"
	"oestm/internal/store"
	"oestm/internal/wal"
	"oestm/internal/wire"
)

// The ladder times each layer alone, from outside, by calling its public
// functions: the same probes on every workload, so a layer's number moves
// only when the layer does. Every timing is the median of several rounds.

// ladderSize scales the probes: rounds per probe and operations per
// round. The test runs a tiny ladder.
type ladderSize struct{ rounds, iters int }

var fullLadder = ladderSize{rounds: 7, iters: 4096}

// probe returns the median over sz.rounds rounds of a round's time per
// operation in nanoseconds; round reports the time it measured and how
// many operations that covers.
func (sz ladderSize) probe(round func() (time.Duration, int)) float64 {
	ns := make([]float64, sz.rounds)
	for i := range ns {
		d, n := round()
		ns[i] = float64(d) / float64(n)
	}
	return median(ns)
}

// loop is the common round: sz.iters calls timed together.
func (sz ladderSize) loop(fn func(i int)) float64 {
	fn(0) // grow buffers and pools before timing
	return sz.probe(func() (time.Duration, int) {
		t0 := time.Now()
		for i := 0; i < sz.iters; i++ {
			fn(i)
		}
		return time.Since(t0), sz.iters
	})
}

// allocs counts heap allocations per call, rounded down like
// testing.AllocsPerRun so the runtime's own stray allocations vanish.
func (sz ladderSize) allocs(fn func(i int)) float64 {
	fn(0)
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	for i := 0; i < sz.iters; i++ {
		fn(i)
	}
	runtime.ReadMemStats(&b)
	return float64((b.Mallocs - a.Mallocs) / uint64(sz.iters))
}

// ladderKV is the keyspace of the store probes: the key-value workloads'
// keys, all present (it has no removes to balance).
var ladderKV = workload{name: "ladder", keys: kvKeys}

// pick spreads probe iterations over a keyspace.
func pick(i, keys int) int64 { return int64(mix64(uint64(i)) % uint64(keys)) }

// scatter does too, without repeating a key before i reaches keys (a
// power of two).
func scatter(i, keys int) int64 { return int64(i*40503) % int64(keys) }

// ladder runs every probe and sets the workload-independent per-layer
// metrics.
func ladder(e *env, sz ladderSize, m metrics) error {
	set := func(name string, v float64) { m.set(perLayerUnits, name, v) }
	wireProbes(sz, set)
	mvarProbes(sz, set)
	coreProbes(sz, set)
	eecProbes(sz, set)
	if err := storeProbes(e, sz, set); err != nil {
		return err
	}
	if err := walProbes(e, sz, set); err != nil {
		return err
	}
	if err := specexecProbes(sz, set); err != nil {
		return err
	}
	return serverProbes(e, sz, set)
}

func wireProbes(sz ladderSize, set func(string, float64)) {
	var (
		buf    []byte
		dq     wire.Request
		dr     wire.Response
		allocs float64
	)
	reqCodec := func(q *wire.Request) func(int) {
		return func(int) {
			buf = appendFrame(buf[:0], q)
			if err := dq.Decode(buf[wire.HeaderSize:]); err != nil {
				panic(err)
			}
		}
	}
	respCodec := func(op wire.Op, r *wire.Response) func(int) {
		return func(int) {
			buf = wire.AppendResponse(wire.BeginFrame(buf[:0]), op, r)
			if err := wire.FinishFrame(buf); err != nil {
				panic(err)
			}
			if err := dr.Decode(op, buf[wire.HeaderSize:]); err != nil {
				panic(err)
			}
		}
	}
	w := &ladderKV
	var get, mput wire.Request
	w.expand(reqDesc{op: wire.OpGet, key: 7}, &get)
	w.expand(reqDesc{op: wire.OpMPut, key: 7}, &mput)
	getResp := wire.Response{Status: wire.StatusOK, Val: valueOf(7)}
	mgetResp := wire.Response{Status: wire.StatusOK, Vals: mput.Vals, Present: make([]bool, span)}
	for _, p := range []struct {
		name string
		fn   func(int)
	}{
		{"wire.req_codec_ns.get", reqCodec(&get)},
		{"wire.req_codec_ns.mput8", reqCodec(&mput)},
		{"wire.resp_codec_ns.get", respCodec(wire.OpGet, &getResp)},
		{"wire.resp_codec_ns.mget8", respCodec(wire.OpMGet, &mgetResp)},
	} {
		set(p.name, sz.loop(p.fn))
		allocs += sz.allocs(p.fn)
	}
	set("wire.codec_allocs", allocs)
}

func mvarProbes(sz ladderSize, set func(string, float64)) {
	var v mvar.IntVar
	v.Init(1)
	word := v.Word()
	set("mvar.read_consistent_ns", sz.loop(func(int) {
		if _, _, ok := word.ReadConsistent(); !ok {
			panic("unlocked word read inconsistently")
		}
	}))
	set("mvar.lock_cycle_ns", sz.loop(func(i int) {
		meta := word.Meta()
		if !word.TryLock(1, meta) {
			panic("uncontended lock failed")
		}
		word.Unlock(mvar.Version(meta) + 1)
	}))
}

func coreProbes(sz ladderSize, set func(string, float64)) {
	th := oestm.NewThread(oestm.NewOESTM())
	var vars [span]oestm.Int
	for i := range vars {
		vars[i].Init(int64(i))
	}
	var sink int64
	ro := func(tx oestm.Tx) error { sink += oestm.ReadInt(tx, &vars[0]); return nil }
	w1 := func(tx oestm.Tx) error {
		oestm.WriteInt(tx, &vars[0], oestm.ReadInt(tx, &vars[0])+1)
		return nil
	}
	atomically := func(fn func(oestm.Tx) error) func(int) {
		return func(int) {
			if err := th.Atomic(oestm.Elastic, fn); err != nil {
				panic(err)
			}
		}
	}
	set("core.txn_ro_ns", sz.loop(atomically(ro)))
	set("core.txn_w1_ns", sz.loop(atomically(w1)))
	set("core.txn_allocs", sz.allocs(atomically(w1)))

	// A child's commit with outheritance: a parent running span one-read
	// children, less the same parent reading the span variables itself.
	var child int
	readChild := func(tx oestm.Tx) error { sink += oestm.ReadInt(tx, &vars[child]); return nil }
	nested := func(oestm.Tx) error {
		for child = range vars {
			if err := th.Atomic(oestm.Elastic, readChild); err != nil {
				return err
			}
		}
		return nil
	}
	flat := func(tx oestm.Tx) error {
		for i := range vars {
			sink += oestm.ReadInt(tx, &vars[i])
		}
		return nil
	}
	d := sz.loop(atomically(nested)) - sz.loop(atomically(flat))
	set("core.nested_commit_ns", max(d, 0)/span)
	_ = sink
}

func eecProbes(sz ladderSize, set func(string, float64)) {
	// One shard's share of the serving keyspace.
	const keys = kvKeys / store.DefaultShards
	th := oestm.NewThread(oestm.NewOESTM())
	m := oestm.NewSkipListMap()
	for k := 0; k < keys; k++ {
		m.Put(th, k, valueOf(int64(k)))
	}
	set("eec.map_get_ns", sz.loop(func(i int) { m.Get(th, int(pick(i, keys))) }))
	set("eec.map_put_ns", sz.loop(func(i int) {
		k := pick(i, keys)
		m.Put(th, int(k), valueOf(k))
	}))
	n := min(sz.iters, keys)
	set("eec.map_remove_ns", sz.probe(func() (time.Duration, int) {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			m.Remove(th, int(scatter(i, keys)))
		}
		d := time.Since(t0)
		for i := 0; i < n; i++ {
			k := scatter(i, keys)
			m.Put(th, int(k), valueOf(k))
		}
		return d, n
	}))

	// The library workload's list.
	l := oestm.NewLinkedListSet()
	for k := 0; k < libRange; k++ {
		if libFilled(k) {
			l.Add(th, k)
		}
	}
	few := ladderSize{sz.rounds, max(sz.iters/16, 1)} // a list operation walks ~2 000 nodes
	set("eec.list_contains_ns", few.loop(func(i int) { l.Contains(th, int(pick(i, libRange))) }))
	var pair [2]int
	set("eec.list_bulk_ns", few.loop(func(i int) {
		v := int(pick(i, libRange))
		pair = [2]int{v, (v + 1) / 2}
		if i%2 == 0 {
			l.AddAll(th, pair[:])
		} else {
			l.RemoveAll(th, pair[:])
		}
	}))
}

// storeFuncs returns one closure per frame operation of p, each running
// the operation once on the i'th key of the probes' keyspace.
func storeFuncs(p *inproc) map[string]func(int) {
	w := &ladderKV
	fr := p.fr
	var q wire.Request
	multi := func(op wire.Op, i int) {
		w.expand(reqDesc{op: op, key: uint32(pick(i, w.keys))}, &q)
	}
	moves := 0
	return map[string]func(int){
		"get": func(i int) { fr.Get(pick(i, w.keys)) },
		"put": func(i int) {
			k := pick(i, w.keys)
			fr.Put(k, valueOf(k))
		},
		"mget8": func(i int) {
			multi(wire.OpMGet, i)
			fr.MGet(q.Keys, p.vals, p.oks)
		},
		"mput8": func(i int) {
			multi(wire.OpMPut, i)
			fr.MPut(q.Keys, q.Vals)
		},
		// There and back: a key moves to a slot beyond the prefilled
		// keyspace and home again on the next call, so every move
		// succeeds.
		"cam": func(int) {
			k := pick(moves/2, w.keys)
			from, to := k, int64(w.keys)+k
			if moves%2 == 1 {
				from, to = to, from
			}
			moves++
			if !fr.CompareAndMove(from, to, valueOf(k)) {
				panic("ladder: compare-and-move refused")
			}
		},
		"add": func(i int) { fr.Add(pick(i, w.keys), 1) },
		"madd8": func(i int) {
			multi(wire.OpMAdd, i)
			fr.MAdd(q.Keys, q.Vals)
		},
	}
}

func storeProbes(e *env, sz ladderSize, set func(string, float64)) error {
	w := &ladderKV
	p, err := newInproc("", store.BoostAuto)
	if err != nil {
		return err
	}
	p.prefill(w)
	ops := storeFuncs(p)
	for _, op := range []string{"get", "put", "mget8", "mput8", "cam", "add", "madd8"} {
		set("store."+op+"_ns", sz.loop(ops[op]))
	}
	for _, op := range []string{"get", "put", "mput8"} {
		set("store."+op+"_allocs", sz.allocs(ops[op]))
	}
	n := min(sz.iters, w.keys)
	set("store.remove_ns", sz.probe(func() (time.Duration, int) {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			p.fr.Remove(scatter(i, w.keys))
		}
		d := time.Since(t0)
		for i := 0; i < n; i++ {
			k := scatter(i, w.keys)
			p.fr.Put(k, valueOf(k))
		}
		return d, n
	}))

	boosted, err := newInproc("", store.BoostOn)
	if err != nil {
		return err
	}
	hot := workloadByName("hot-counter")
	boosted.prefill(hot)
	set("store.add_boosted_ns", sz.loop(func(i int) { boosted.fr.Add(pick(i, hot.keys), 1) }))

	dir, err := os.MkdirTemp(e.outDir, "wal-")
	if err != nil {
		return err
	}
	logged, err := newInproc(dir, store.BoostAuto)
	if err != nil {
		return err
	}
	logged.prefill(w)
	ops = storeFuncs(logged)
	for _, op := range []string{"put", "mput8", "cam"} {
		set("store."+op+"_wal_ns", sz.loop(ops[op]))
	}
	return errors.Join(logged.fr.WALErr(), logged.close())
}

func walProbes(e *env, sz ladderSize, set func(string, float64)) error {
	dir, err := os.MkdirTemp(e.outDir, "wal-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	opts := wal.Options{Shards: 1}
	log, _, err := wal.Open(dir, opts)
	if err != nil {
		return err
	}
	var (
		mu       sync.Mutex
		flushErr error
	)
	flush := func(seq uint64) {
		if err := log.Sync(0, seq); err != nil {
			mu.Lock()
			flushErr = errors.Join(flushErr, err)
			mu.Unlock()
		}
	}
	appendPut := func(i int) uint64 {
		log.Lock(0)
		seq := log.AppendPut(0, int64(i), valueOf(int64(i)))
		log.Unlock(0)
		return seq
	}

	// Appends into the buffer, flushed outside the timing.
	s0 := log.Stats()
	set("wal.append_ns", sz.probe(func() (time.Duration, int) {
		var seq uint64
		t0 := time.Now()
		for i := 0; i < sz.iters; i++ {
			seq = appendPut(i)
		}
		d := time.Since(t0)
		flush(seq)
		return d, sz.iters
	}))
	s1 := log.Stats()
	set("wal.bytes_per_record", float64((s1.Bytes-s0.Bytes)/(s1.Appends-s0.Appends)))

	// One record per flush: the write(2) a lone committer pays.
	set("wal.sync_ns", sz.probe(func() (d time.Duration, n int) {
		for i := 0; i < sz.iters; i++ {
			seq := appendPut(i)
			t0 := time.Now()
			flush(seq)
			d += time.Since(t0)
		}
		return d, sz.iters
	}))

	// Two committers on one shard: append and flush, per committed record.
	set("wal.group_sync_ns.w2", sz.probe(func() (time.Duration, int) {
		var wg sync.WaitGroup
		t0 := time.Now()
		for g := 0; g < workers; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < sz.iters; i++ {
					flush(appendPut(i))
				}
			}()
		}
		wg.Wait()
		return time.Since(t0), workers * sz.iters
	}))
	records := log.Stats().Appends
	if err := errors.Join(flushErr, log.Close()); err != nil {
		return err
	}

	// Recovery as a restart does it: scan the log, replay it into a fresh
	// store.
	th := oestm.NewThread(oestm.NewOESTM())
	t0 := time.Now()
	log, rp, err := wal.Open(dir, opts)
	if err != nil {
		return err
	}
	store.New(store.Config{Shards: 1}).Recover(th, rp)
	set("wal.recover_ns_per_record", float64(time.Since(t0))/float64(records))
	return log.Close()
}

// specTxn is one transaction of the speculative executor's probe
// families: read a key, write it back incremented.
type specTxn struct{ key int64 }

func (t *specTxn) Speculate(v *specexec.View) {
	n, _ := v.Read(t.key)
	v.Write(t.key, n+1)
}

func specexecProbes(sz ladderSize, set func(string, float64)) error {
	const batch = 16
	p, err := newInproc("", store.BoostAuto)
	if err != nil {
		return err
	}
	ap := store.NewApplier(p.st, workers, p.thread)
	var pending atomic.Int32
	done := make(chan struct{})
	ex, err := specexec.New(specexec.Config{
		Workers:   workers,
		NewBase:   func(w int) specexec.Base { return ap.Base(w) },
		Committer: ap,
		Done: func(specexec.Txn) {
			if pending.Add(-1) == 0 {
				done <- struct{}{}
			}
		},
	})
	if err != nil {
		return err
	}
	ex.Start()
	defer ex.Close()
	family := func(keyOf func(i int) int64) float64 {
		txns := make([]specexec.Txn, batch)
		for i := range txns {
			txns[i] = &specTxn{key: keyOf(i)}
		}
		few := ladderSize{sz.rounds, max(sz.iters/batch, 1)}
		return few.loop(func(int) {
			pending.Store(batch)
			ex.SubmitAll(txns)
			<-done
		}) / batch
	}
	// Sixteen independent transactions, then sixteen that all conflict
	// on one key.
	set("specexec.indep16_ns_per_txn", family(func(i int) int64 { return int64(i) }))
	s0 := ex.Stats()
	set("specexec.conflict16_ns_per_txn", family(func(int) int64 { return 0 }))
	s1 := ex.Stats()
	set("specexec.reexec_ratio", ratio(float64(s1.Reexecs-s0.Reexecs), float64(s1.Execs-s0.Execs)))
	return nil
}

// serverProbes times a bare round trip to a served store at pipeline 1
// and 16: gets of present keys, as little store work as a request can do.
func serverProbes(e *env, sz ladderSize, set func(string, float64)) error {
	w := workload{name: "ladder", keys: kvKeys / store.DefaultShards}
	srv, err := startServer(e.serverBin, "", filepath.Join(e.outDir, "server-ladder.log"))
	if err != nil {
		return err
	}
	defer srv.kill() // no-op once term succeeded
	c, err := dial(srv.addr)
	if err != nil {
		return err
	}
	defer c.close()
	if err := c.prefill(&w); err != nil {
		return err
	}
	var rtErr error
	for _, depth := range []struct {
		name string
		n    int
	}{{"server.rt_us.p1", 1}, {"server.rt_us.p16", 16}} {
		few := ladderSize{sz.rounds, max(sz.iters/4, 1)}
		ns := few.loop(func(i int) {
			c.out = c.out[:0]
			for j := 0; j < depth.n; j++ {
				w.expand(reqDesc{op: wire.OpGet, key: uint32(pick(i+j, w.keys))}, &c.req)
				c.out = appendFrame(c.out, &c.req)
			}
			err := c.send()
			if err == nil {
				err = c.recv(depth.n)
			}
			for j := 0; err == nil && j < depth.n; j++ {
				err = c.resp.Decode(wire.OpGet, c.frames[j])
			}
			if err != nil && rtErr == nil {
				rtErr = err
			}
		})
		set(depth.name, ns/1e3)
	}
	c.close()
	return errors.Join(rtErr, srv.term())
}
