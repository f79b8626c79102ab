package server

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"oestm/internal/cm"
	"oestm/internal/obs"
	"oestm/internal/specexec"
	"oestm/internal/stm"
	"oestm/internal/store"
	"oestm/internal/wal"
	"oestm/internal/wire"
)

// Config describes one server instance.
type Config struct {
	// Addr is the TCP listen address (e.g. ":7461", "127.0.0.1:0").
	Addr string
	// Engine names the engine for stats reporting; NewTM builds it. Both
	// are required (resolve names with harness.EngineByName or construct
	// directly).
	Engine string
	NewTM  func() stm.TM
	// Shards is the store's shard count (0 = store.DefaultShards).
	Shards int
	// CM names the contention policy installed on every connection's
	// thread (internal/cm; empty = cm.DefaultName).
	CM string
	// MaxRetries, when non-zero, bounds the attempts of every transaction
	// of every conn-mode request (it is the connection thread's
	// stm.Thread.MaxRetries); exhaustion returns ErrRetryExhausted to the
	// client instead of retrying forever — a liveness guard for the
	// ablations, under which a torn composition can leave a structure on
	// which every attempt conflicts. It is not applied to the batch
	// executor's applier threads: speculation runs no engine transactions,
	// and a shard's commit job is the only writer of its shard (reads
	// happen in a disjoint phase), so its apply transactions have nothing
	// to conflict with and need no bound.
	MaxRetries int
	// Unsound builds the store in unsound mode (composed operations split
	// into separate transactions — the checker-validation baseline).
	Unsound bool
	// Boost selects the store's commutative hot-key mode for the
	// integer-delta requests (Add/MAdd) in conn mode: BoostOff (zero
	// value) runs them as read-modify-write transactions, BoostAuto
	// promotes keys adaptively, BoostOn promotes every add's key
	// (store.BoostMode; unsound mode forces off).
	Boost store.BoostMode
	// MaxBody caps accepted frame bodies (0 = wire.MaxBody).
	MaxBody int
	// WALDir, when non-empty, makes the store durable: a write-ahead
	// log in that directory (created if needed), recovered
	// into the store before the listener opens and flushed on Shutdown.
	WALDir string
	// Fsync makes every WAL group commit fsync before acknowledging
	// (WALDir only). Off, acknowledged writes survive process death but
	// not power loss.
	Fsync bool
	// SnapshotEvery, when positive, writes a snapshot generation at that
	// period (WALDir only) — a replay accelerator; the log is kept whole.
	SnapshotEvery time.Duration
	// Exec selects the execution model: ExecConn (default, also "")
	// serves each connection on its own goroutine; ExecBatch runs the
	// speculative batch executor — pipelined bursts become batches
	// executed optimistically in parallel and committed in arrival
	// order (see batch.go and internal/specexec).
	Exec string
	// BatchWorkers is the batch executor's worker-pool size
	// (Exec == ExecBatch; 0 = GOMAXPROCS).
	BatchWorkers int
	// MaxBatch caps how many queued requests one batch drains
	// (Exec == ExecBatch; 0 = specexec.DefaultMaxBatch).
	MaxBatch int
}

// Server is a running instance. Create with New, start with Start.
type Server struct {
	cfg    Config
	cmName string
	tm     stm.TM
	st     *store.Store
	ln     net.Listener

	// Durability (nil/zero without Config.WALDir): the log, the recovery
	// that seeded the store, and the snapshotter's lifecycle.
	wlog     *wal.Log
	recovery *wal.Replay
	snapStop chan struct{}
	snapDone chan struct{}
	walClose sync.Once
	walErr   error

	batchClose sync.Once

	// batch is the speculative execution backend (nil in conn mode).
	batch *batchEngine

	mu       sync.Mutex
	conns    map[*conn]struct{}
	draining atomic.Bool

	// retired accumulates the telemetry of closed connections.
	retired opStats

	// flight samples abort-suffering requests for /debug/aborts.
	flight *obs.FlightRecorder

	wg sync.WaitGroup // accept loop + connection handlers
}

// New validates cfg and builds the engine and store. The server is not
// listening yet.
func New(cfg Config) (*Server, error) {
	if cfg.NewTM == nil || cfg.Engine == "" {
		return nil, errors.New("server: Config.Engine and Config.NewTM are required")
	}
	cmName := cfg.CM
	if cmName == "" {
		cmName = cm.DefaultName
	}
	if _, ok := cm.New(cmName); !ok {
		return nil, fmt.Errorf("server: unknown contention-management policy %q", cmName)
	}
	if cfg.MaxBody == 0 {
		cfg.MaxBody = wire.MaxBody
	}
	switch cfg.Exec {
	case "":
		cfg.Exec = ExecConn
	case ExecConn, ExecBatch:
	default:
		return nil, fmt.Errorf("server: unknown exec mode %q", cfg.Exec)
	}
	shards := cfg.Shards
	if shards == 0 {
		shards = store.DefaultShards
	}
	var (
		wlog     *wal.Log
		recovery *wal.Replay
	)
	if cfg.WALDir != "" {
		var err error
		wlog, recovery, err = wal.Open(cfg.WALDir, wal.Options{Shards: shards, Fsync: cfg.Fsync})
		if err != nil {
			return nil, fmt.Errorf("server: open wal: %w", err)
		}
	}
	s := &Server{
		cfg:      cfg,
		cmName:   cmName,
		tm:       cfg.NewTM(),
		st:       store.New(store.Config{Shards: shards, Unsound: cfg.Unsound, WAL: wlog, Boost: cfg.Boost}),
		wlog:     wlog,
		recovery: recovery,
		conns:    map[*conn]struct{}{},
		flight:   obs.NewFlightRecorder(),
	}
	if recovery != nil {
		// Replay before the listener opens: the shards are fresh, no
		// frame is live, and the one recovery thread sees them alone.
		s.st.Recover(stm.NewThread(s.tm), recovery)
	}
	if cfg.Exec == ExecBatch {
		workers := cfg.BatchWorkers
		if workers <= 0 {
			workers = runtime.GOMAXPROCS(0)
		}
		b, err := newBatchEngine(s, workers, cfg.MaxBatch)
		if err != nil {
			s.closeWAL()
			return nil, err
		}
		s.batch = b
	}
	return s, nil
}

// Recovery returns the WAL replay that seeded the store at New (nil
// without Config.WALDir): startup logging and the crash-recovery tests
// read the torn-tail details from it.
func (s *Server) Recovery() *wal.Replay { return s.recovery }

// Store exposes the server's store (in-process harnesses and tests).
func (s *Server) Store() *store.Store { return s.st }

// Telemetry fills p with the server's merged stats snapshot — the same
// merge the OpStats wire opcode serves. The admin plane's /metrics and
// /stats endpoints scrape through this, which is what makes HTTP and
// wire observations consistent with each other.
func (s *Server) Telemetry(p *wire.StatsPayload) { s.statsPayload(p) }

// Flight exposes the abort flight recorder (the admin plane drains it
// at /debug/aborts).
func (s *Server) Flight() *obs.FlightRecorder { return s.flight }

// Start begins listening on cfg.Addr and serving connections.
func (s *Server) Start() error {
	ln, err := net.Listen("tcp", s.cfg.Addr)
	if err != nil {
		return err
	}
	s.ln = ln
	if s.batch != nil {
		s.batch.exec.Start()
	}
	s.wg.Add(1)
	go s.acceptLoop()
	if s.wlog != nil && s.cfg.SnapshotEvery > 0 {
		s.snapStop = make(chan struct{})
		s.snapDone = make(chan struct{})
		go s.snapshotLoop()
	}
	return nil
}

// snapshotLoop writes a snapshot generation every SnapshotEvery on its
// own thread. Errors don't stop the loop (snapshots accelerate replay;
// the log alone stays sufficient) — the next tick retries.
func (s *Server) snapshotLoop() {
	defer close(s.snapDone)
	th := stm.NewThread(s.tm)
	ticker := time.NewTicker(s.cfg.SnapshotEvery)
	defer ticker.Stop()
	for {
		select {
		case <-s.snapStop:
			return
		case <-ticker.C:
			_ = s.st.Snapshot(th)
		}
	}
}

// closeWAL stops the snapshotter and flushes+closes the log, once.
func (s *Server) closeWAL() error {
	s.walClose.Do(func() {
		if s.snapStop != nil {
			close(s.snapStop)
			<-s.snapDone
		}
		s.walErr = s.wlog.Close() // nil-receiver safe
	})
	return s.walErr
}

// Addr returns the bound listen address (useful with ":0").
func (s *Server) Addr() net.Addr { return s.ln.Addr() }

// acceptLoop admits connections until the listener closes.
func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		nc, err := s.ln.Accept()
		if err != nil {
			return // listener closed (Shutdown) or fatal
		}
		c := newConn(s, nc)
		s.mu.Lock()
		if s.draining.Load() {
			s.mu.Unlock()
			nc.Close()
			continue
		}
		s.conns[c] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			c.handle()
		}()
	}
}

// Shutdown drains the server: stop accepting, let every connection
// finish the requests it has already received, then close. Connections
// still open when ctx expires are closed hard and their threads
// cancelled. Safe to call once.
func (s *Server) Shutdown(ctx context.Context) error {
	s.draining.Store(true)
	if s.ln != nil {
		s.ln.Close()
	}
	s.mu.Lock()
	for c := range s.conns {
		// Interrupt the next blocking read; buffered pipelined requests
		// still drain (bufio serves them without touching the socket).
		c.nc.SetReadDeadline(time.Unix(1, 0))
	}
	s.mu.Unlock()

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		// Every handler has returned, so no appends are in flight: the
		// final flush drains whatever the last group commits buffered.
		// The batch executor closes first — Close drains every batch
		// already submitted, and its commits append to the log.
		s.closeBatch()
		return s.closeWAL()
	case <-ctx.Done():
		// Close hard: the closed socket unblocks a handler doing IO, and
		// the cancelled thread stops one spinning in a transaction retry
		// loop at its next abort. Grant a short grace for them to return.
		s.mu.Lock()
		for c := range s.conns {
			c.nc.Close()
			c.th.Cancel()
		}
		s.mu.Unlock()
		select {
		case <-done:
			s.closeBatch()
			_ = s.closeWAL()
		case <-time.After(time.Second):
			// Handlers may still be live; closing the log (or the batch
			// executor) under them would turn in-flight work into
			// spurious errors, so both are left to the process exit
			// (the log's contents are already written by each
			// acknowledged request's Sync).
		}
		return ctx.Err()
	}
}

// closeBatch drains and stops the batch executor, once. Callers must
// know every handler has returned — nothing may submit afterwards.
func (s *Server) closeBatch() {
	if s.batch != nil {
		s.batchClose.Do(s.batch.exec.Close)
	}
}

// opStats is per-opcode request counts and server-side latency histograms
// plus a snapshot of transaction counters — one connection's telemetry,
// or the sum over the closed ones.
type opStats struct {
	ops [wire.NumOps]wire.OpTelemetry
	stm stm.Stats
}

// connStats is the telemetry one connection publishes. Guarded by mu; the
// handler publishes after each request, the stats endpoint reads from any
// connection's goroutine.
type connStats struct {
	mu sync.Mutex
	opStats
}

// publish records one handled request and refreshes the thread snapshot.
func (cs *connStats) publish(op wire.Op, d time.Duration, th *stm.Thread) {
	cs.mu.Lock()
	cs.ops[op].Count++
	cs.ops[op].Hist.Record(d)
	cs.stm = th.Stats
	cs.mu.Unlock()
}

// mergeInto folds the per-opcode stats into ops under the lock and
// returns the transaction counters for the caller to add where it keeps
// them.
func (cs *connStats) mergeInto(ops *[wire.NumOps]wire.OpTelemetry) stm.Stats {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	mergeOps(ops, &cs.ops)
	return cs.stm
}

// mergeOps adds src's counts and histograms into dst.
func mergeOps(dst, src *[wire.NumOps]wire.OpTelemetry) {
	for i := range src {
		dst[i].Count += src[i].Count
		dst[i].Hist.Merge(&src[i].Hist)
	}
}

// statsPayload merges the telemetry of every connection, live and
// retired. It holds s.mu across the whole merge so it is atomic with
// respect to retire: a connection's counters appear exactly once per
// scrape — live or retired, never neither — which keeps scrape-to-scrape
// deltas (harness.RunLoad) monotone. Lock order everywhere: s.mu, then
// a connStats.mu; the request path's publish takes only the latter.
func (s *Server) statsPayload(p *wire.StatsPayload) {
	ws := s.wlog.Stats() // zero on nil receiver
	*p = wire.StatsPayload{
		Engine:     s.cfg.Engine,
		CM:         s.cmName,
		Shards:     s.st.Shards(),
		Exec:       s.cfg.Exec,
		WALEnabled: s.wlog.Enabled(),
		WALAppends: ws.Appends,
		WALSyncs:   ws.Syncs,
		WALBytes:   ws.Bytes,
	}
	bs := s.st.BoostStats()
	p.Adds = bs.Adds
	p.BoostedOps = bs.BoostedOps
	p.HotPromotions = bs.Promotions
	p.HotDemotions = bs.Demotions
	if s.batch != nil {
		ss := s.batch.exec.Stats()
		p.SpecBatches = ss.Batches
		p.SpecExecs = ss.Execs
		p.SpecReexecs = ss.Reexecs
		p.SpecValidationFails = ss.ValidationFails
		p.AddSTM(s.batch.threadStats())
	}
	// Per-shard telemetry: the store's padded per-shard counters.
	shards := s.st.Shards()
	p.ShardStats = make([]wire.ShardTelemetry, shards)
	for i := 0; i < shards; i++ {
		ops, aborts, hot := s.st.ShardCounters(i)
		p.ShardStats[i] = wire.ShardTelemetry{Ops: ops, Aborts: aborts, HotKeys: hot}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	p.Conns = len(s.conns)
	mergeOps(&p.Ops, &s.retired.ops)
	p.AddSTM(s.retired.stm)
	for c := range s.conns {
		p.AddSTM(c.stats.mergeInto(&p.Ops))
	}
}

// retire unregisters a closing connection and folds its telemetry into
// the server-wide accumulator, atomically with respect to statsPayload
// (both hold s.mu for the whole transfer).
func (s *Server) retire(c *conn) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.conns, c)
	s.retired.stm.Add(c.stats.mergeInto(&s.retired.ops))
}

// request is one request in flight: the decoded arguments and the
// response its execution fills — conn.exec against the connection's
// frame in conn mode, Speculate attempts against the batch view in batch
// mode (see batch.go). Requests are pooled per connection and reused, so
// the slices inside req and resp are the steady state's only buffers.
type request struct {
	c    *conn
	req  wire.Request
	resp wire.Response

	// decoded is false for an undecodable frame; such requests are not
	// counted in per-op telemetry.
	decoded bool
	// runs marks requests that execute against the store; Stats, Ping
	// and pre-resolved errors are answered at encode time.
	runs bool
}

// mutating marks the opcodes that change the store: the ones a sticky
// WAL error turns into durability errors.
var mutating = [wire.NumOps]bool{
	wire.OpPut: true, wire.OpRemove: true, wire.OpCompareAndMove: true,
	wire.OpMPut: true, wire.OpAdd: true, wire.OpMAdd: true,
}

// validKeys checks every key a request names against the store's
// reserved sentinels — the protocol boundary's one key check. Decode
// zeroes the fields an opcode does not carry, so no opcode switch is
// needed.
func validKeys(q *wire.Request) bool {
	for _, k := range q.Keys {
		if !store.ValidKey(k) {
			return false
		}
	}
	return store.ValidKey(q.Key) && store.ValidKey(q.To)
}

// fail turns r into a typed error response.
func fail(r *wire.Response, code wire.ErrCode, msg string) {
	r.Status, r.Err, r.Msg = wire.StatusErr, code, msg
}

// decode parses one frame body into t and classifies it: store-bound
// (t.runs), connection-resolved (Stats/Ping — they touch no keys), or a
// pre-resolved typed error (undecodable body, reserved key). The frame
// was consumed whole either way, so framing is intact and the connection
// keeps serving.
func (t *request) decode(body []byte) {
	r := &t.resp
	*r = wire.Response{Present: r.Present[:0], Vals: r.Vals[:0], Stats: r.Stats[:0], Status: wire.StatusOK}
	err := t.req.Decode(body)
	t.decoded, t.runs = err == nil, false
	switch {
	case err != nil:
		pe, _ := wire.IsProtocolError(err)
		fail(r, pe.Code, pe.Msg)
	case !validKeys(&t.req):
		fail(r, wire.ErrKeyRange, "reserved key")
	default:
		t.runs = t.req.Op != wire.OpStats && t.req.Op != wire.OpPing
	}
}

// conn is one connection's context: its goroutine owns every field
// except stats (see connStats).
type conn struct {
	srv *Server
	nc  net.Conn
	br  *bufio.Reader
	bw  *bufio.Writer

	th *stm.Thread
	fr *store.Frame

	in  []byte // frame-read buffer
	out []byte // response-encode buffer

	// reqs is the request pool: conn mode serves reqs[0] over and over,
	// batch mode fills one entry per request of the current burst.
	reqs []*request

	// Batch-mode state (srv.batch != nil): the submission scratch and the
	// completion signal the executor's Done callback drives (see
	// batch.go).
	burst   []specexec.Txn
	pending atomic.Int32
	doneCh  chan struct{}

	stats connStats

	// Flight-recorder state (conn mode): the connection's write handle
	// and its last-seen per-cause abort counters, diffed to name the
	// dominant cause of each abort-suffering request.
	ring   *obs.Ring
	causes [stm.NumCauses]uint64
}

// newConn builds the per-connection context.
func newConn(s *Server, nc net.Conn) *conn {
	th := stm.NewThread(s.tm)
	th.CM = cm.MustNew(s.cmName)
	th.MaxRetries = s.cfg.MaxRetries
	c := &conn{
		srv: s,
		nc:  nc,
		br:  bufio.NewReaderSize(nc, 32<<10),
		bw:  bufio.NewWriterSize(nc, 32<<10),
		th:  th,
		fr:  s.st.NewFrame(th),
	}
	if s.batch != nil {
		c.doneCh = make(chan struct{}, 1)
	} else {
		// Batch-mode aborts happen on applier workers without request
		// context; only conn mode records flight events.
		c.ring = s.flight.Ring()
	}
	return c
}

// slot returns the i'th pooled request, growing the pool as needed.
func (c *conn) slot(i int) *request {
	for len(c.reqs) <= i {
		c.reqs = append(c.reqs, &request{c: c})
	}
	return c.reqs[i]
}

// readFrame reads the next frame body. ok false means the connection is
// done; pe is then the typed error to answer first when framing was lost
// (oversized announcement or mid-frame end of stream) and nil for a
// clean close, a drain-deadline interrupt or a connection error.
func (c *conn) readFrame() (body []byte, pe *wire.ProtocolError, ok bool) {
	body, err := wire.ReadFrame(c.br, c.in[:0], c.srv.cfg.MaxBody)
	c.in = body[:cap(body)]
	if err != nil {
		pe, _ = wire.IsProtocolError(err)
		return nil, pe, false
	}
	return body, nil, true
}

// appendFrame frames t's response onto c.out.
func (c *conn) appendFrame(t *request, werr error) bool {
	mark := len(c.out)
	c.out = t.appendResponse(wire.BeginFrame(c.out), werr)
	return c.finishFrame(mark)
}

// finishFrame closes the frame begun at mark, replacing a body that
// outgrew a frame (a stats payload can, in principle) with a typed
// error. It reports false when even that cannot be framed.
func (c *conn) finishFrame(mark int) bool {
	if wire.FinishFrame(c.out[mark:]) != nil {
		c.out = wire.AppendError(wire.BeginFrame(c.out[:mark]), wire.ErrFrameTooLarge, "response exceeds frame limit")
		return wire.FinishFrame(c.out[mark:]) == nil
	}
	return true
}

// send writes c.out and flushes once per pipelined burst: only when no
// complete frame is already buffered. Completeness matters — a buffered
// header (or partial body) whose peer is waiting for this response
// before sending the rest must not suppress the flush, or both sides
// deadlock.
func (c *conn) send() bool {
	if _, err := c.bw.Write(c.out); err != nil {
		return false
	}
	return c.nextFrameBuffered() || c.bw.Flush() == nil
}

// nextFrameBuffered reports whether a complete request frame is already
// in the read buffer (header and full announced body), i.e. the next
// ReadFrame cannot block on the socket.
func (c *conn) nextFrameBuffered() bool {
	if c.br.Buffered() < wire.HeaderSize {
		return false
	}
	hdr, err := c.br.Peek(wire.HeaderSize)
	if err != nil {
		return false
	}
	n := int(binary.BigEndian.Uint32(hdr))
	return c.br.Buffered() >= wire.HeaderSize+n
}

// handle is the connection's request loop, shared by both execution
// models. Conn mode takes one request per turn and executes it inline on
// the connection's own frame. Batch mode takes a whole pipelined burst
// (one blocking frame, then every complete frame already buffered),
// submits it to the executor as one unit and parks until it committed —
// the burst boundary is what turns client pipelining into server
// parallelism; a pipeline depth of one degenerates to solo batches.
// Either way the turn's responses leave in arrival order.
//
// Shutdown's read deadline interrupts the next blocking read, never a
// turn in flight: already-buffered pipelined requests still drain (bufio
// serves them without touching the socket), and the executor always
// completes submitted batches.
func (c *conn) handle() {
	defer func() {
		c.bw.Flush()
		c.nc.Close()
		c.srv.retire(c)
	}()
	batch := c.srv.batch
	for {
		body, pe, ok := c.readFrame()
		start := time.Now()
		ab0 := c.th.Stats.Aborts
		n := 0
		for ok {
			t := c.slot(n)
			n++
			t.decode(body)
			if batch == nil {
				if t.runs {
					ok = c.exec(t)
				}
				break
			}
			if !c.nextFrameBuffered() {
				break
			}
			// The frame is complete in the buffer, so only an oversized
			// announcement can fail here: the burst collected so far is
			// still answered, then the typed error, then close.
			body, pe, ok = c.readFrame()
		}
		// A WAL I/O error is sticky (the log refuses everything after its
		// first failure), so reading it after the turn's commits covers
		// every mutation of the turn.
		werr := c.fr.WALErr()
		if batch != nil {
			c.runBurst(n)
			werr = batch.applier.WALErr()
		}
		c.out = c.out[:0]
		for _, t := range c.reqs[:n] {
			if !c.appendFrame(t, werr) {
				return
			}
		}
		if pe != nil {
			// Framing is lost (oversized announcement or mid-frame end of
			// stream): answer with the typed error, then close — never
			// leave the peer hanging.
			mark := len(c.out)
			c.out = wire.AppendError(wire.BeginFrame(c.out), pe.Code, pe.Msg)
			c.finishFrame(mark)
		}
		sent := c.send()
		elapsed := time.Since(start)
		for _, t := range c.reqs[:n] {
			if t.decoded {
				c.stats.publish(t.req.Op, elapsed, c.th)
			}
		}
		if !sent || !ok {
			return
		}
		if aborts := c.th.Stats.Aborts - ab0; aborts != 0 {
			c.recordAbort(&c.reqs[0].req, aborts, elapsed)
		}
	}
}

// recordAbort samples one abort-suffering request into the flight
// recorder. The dominant cause is the per-cause counter that grew most
// since this connection's last sample; the shard is where the request's
// first key routes, matching the per-shard abort attribution. Off the
// happy path by construction (aborts != 0, which only the connection's
// own transactions — conn mode — can cause), and allocation-free like
// the rest of the instrumentation.
func (c *conn) recordAbort(q *wire.Request, aborts uint64, elapsed time.Duration) {
	cause, best := stm.CauseUnknown, uint64(0)
	for i := range c.th.Stats.AbortsByCause {
		if d := c.th.Stats.AbortsByCause[i] - c.causes[i]; d > best {
			cause, best = stm.ConflictCause(i), d
		}
		c.causes[i] = c.th.Stats.AbortsByCause[i]
	}
	key := q.Key
	if len(q.Keys) > 0 {
		key = q.Keys[0]
	}
	attempts := uint32(aborts)
	if aborts > uint64(^uint32(0)) {
		attempts = ^uint32(0)
	}
	c.ring.Record(q.Op, cause, c.srv.st.ShardOf(key), attempts, elapsed)
}

// exec runs one store-bound request on the connection's own frame — the
// conn-mode execution (batch mode's is request.Speculate) — and reports
// whether the connection may serve another request. Any operation that
// gave up (store.Frame.Err) is answered the same way: ErrShuttingDown if
// Shutdown cancelled the thread, ErrRetryExhausted otherwise.
func (c *conn) exec(t *request) bool {
	q, r, fr := &t.req, &t.resp, c.fr
	switch q.Op {
	case wire.OpGet:
		var ok bool
		if r.Val, ok = fr.Get(q.Key); !ok {
			r.Status = wire.StatusNotFound
		}
	case wire.OpPut:
		r.Flag = fr.Put(q.Key, q.Val)
	case wire.OpRemove:
		r.Val, r.Flag = fr.Remove(q.Key)
	case wire.OpCompareAndMove:
		r.Flag = fr.CompareAndMove(q.Key, q.To, q.Val)
	case wire.OpMGet:
		n := len(q.Keys)
		if cap(r.Vals) < n {
			r.Vals, r.Present = make([]int64, n), make([]bool, n)
		}
		r.Vals, r.Present = r.Vals[:n], r.Present[:n]
		fr.MGet(q.Keys, r.Vals, r.Present)
	case wire.OpMPut:
		fr.MPut(q.Keys, q.Vals)
	case wire.OpAdd:
		fr.Add(q.Key, q.Val)
	case wire.OpMAdd:
		fr.MAdd(q.Keys, q.Vals)
	}
	switch err := fr.Err(); {
	case err == nil:
	case errors.As(err, new(*stm.CancelledError)):
		// End the connection without ClearErr, which would withdraw the
		// cancellation before the next buffered request ran.
		fail(r, wire.ErrShuttingDown, q.Op.String()+" cancelled by shutdown")
		return false
	default:
		fail(r, wire.ErrRetryExhausted, q.Op.String()+" retry budget exhausted")
		fr.ClearErr()
	}
	return true
}

// appendResponse encodes t's response body onto dst — the one
// response-shaping step of both execution models. werr is the sticky WAL
// error covering t's execution: acknowledged-but-not-durable must never
// happen, so mutations report the typed durability error instead of
// success, while reads keep serving — the in-memory state is intact.
func (t *request) appendResponse(dst []byte, werr error) []byte {
	r, srv := &t.resp, t.c.srv
	switch {
	case r.Status == wire.StatusErr:
	case t.req.Op == wire.OpStats:
		var p wire.StatsPayload
		srv.statsPayload(&p)
		r.Stats = wire.AppendStats(r.Stats, &p)
	case t.req.Op == wire.OpPing && srv.draining.Load():
		fail(r, wire.ErrShuttingDown, "draining")
	case werr != nil && mutating[t.req.Op]:
		fail(r, wire.ErrDurability, werr.Error())
	}
	if r.Status == wire.StatusErr {
		return wire.AppendError(dst, r.Err, r.Msg)
	}
	return wire.AppendResponse(dst, t.req.Op, r)
}
