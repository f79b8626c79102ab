package server

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"math/rand/v2"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"oestm/internal/core"
	"oestm/internal/lsa"
	"oestm/internal/stm"
	"oestm/internal/swisstm"
	"oestm/internal/tl2"
	"oestm/internal/wal"
	"oestm/internal/wire"
)

// engines is the local engine table (the harness one lives a layer up).
func engines() []struct {
	name string
	newi func() stm.TM
} {
	return []struct {
		name string
		newi func() stm.TM
	}{
		{"oestm", func() stm.TM { return core.New() }},
		{"estm", func() stm.TM { return core.NewWithoutOutheritance() }},
		{"tl2", func() stm.TM { return tl2.New() }},
		{"lsa", func() stm.TM { return lsa.New() }},
		{"swisstm", func() stm.TM { return swisstm.New() }},
	}
}

// startServer spins up a server on a loopback port and returns it with a
// cleanup-registered shutdown.
func startServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	if cfg.Addr == "" {
		cfg.Addr = "127.0.0.1:0"
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	})
	return s
}

func dial(t *testing.T, s *Server) *Client {
	t.Helper()
	c, err := Dial(s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// rawDial opens a bare framed connection to s for byte-level tests.
func rawDial(t *testing.T, s *Server) (net.Conn, *bufio.Reader) {
	t.Helper()
	nc, err := net.Dial("tcp", s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { nc.Close() })
	return nc, bufio.NewReader(nc)
}

// sendBurst writes bodies as one pipelined burst of frames and returns
// the response bodies, copied.
func sendBurst(t *testing.T, nc net.Conn, br *bufio.Reader, bodies [][]byte) [][]byte {
	t.Helper()
	var out []byte
	for _, b := range bodies {
		var hdr [wire.HeaderSize]byte
		binary.BigEndian.PutUint32(hdr[:], uint32(len(b)))
		out = append(out, hdr[:]...)
		out = append(out, b...)
	}
	if _, err := nc.Write(out); err != nil {
		t.Fatal(err)
	}
	resps := make([][]byte, len(bodies))
	var buf []byte
	for i := range bodies {
		body, err := wire.ReadFrame(br, buf[:0], 0)
		buf = body[:cap(body)]
		if err != nil {
			t.Fatalf("response %d/%d: %v", i, len(bodies), err)
		}
		resps[i] = append([]byte(nil), body...)
	}
	return resps
}

// TestRoundTripEveryEngine exercises the full request surface over a real
// socket on all five engines.
func TestRoundTripEveryEngine(t *testing.T) {
	for _, eng := range engines() {
		t.Run(eng.name, func(t *testing.T) {
			s := startServer(t, Config{Engine: eng.name, NewTM: eng.newi, Shards: 8, CM: "adaptive"})
			c := dial(t, s)

			if err := c.Ping(); err != nil {
				t.Fatal(err)
			}
			if _, ok, err := c.Get(1); err != nil || ok {
				t.Fatalf("empty get = %v ok=%v", err, ok)
			}
			if existed, err := c.Put(1, 100); err != nil || existed {
				t.Fatalf("first put = %v existed=%v", err, existed)
			}
			if v, ok, err := c.Get(1); err != nil || !ok || v != 100 {
				t.Fatalf("get = %d,%v,%v", v, ok, err)
			}
			if err := c.MPut([]int64{2, 3, 1 << 40}, []int64{20, 30, 40}); err != nil {
				t.Fatal(err)
			}
			vals, present, err := c.MGet([]int64{1, 2, 3, 1 << 40, 999})
			if err != nil {
				t.Fatal(err)
			}
			wantVals := []int64{100, 20, 30, 40, 0}
			wantPresent := []bool{true, true, true, true, false}
			for i := range wantVals {
				if present[i] != wantPresent[i] || (present[i] && vals[i] != wantVals[i]) {
					t.Fatalf("mget[%d] = %d,%v want %d,%v", i, vals[i], present[i], wantVals[i], wantPresent[i])
				}
			}
			if moved, err := c.CompareAndMove(1, 999, 100); err != nil || !moved {
				t.Fatalf("cam = %v,%v", moved, err)
			}
			if _, ok, _ := c.Get(1); ok {
				t.Fatal("cam left the source")
			}
			if v, ok, _ := c.Get(999); !ok || v != 100 {
				t.Fatal("cam lost the value")
			}
			if v, removed, err := c.Remove(999); err != nil || !removed || v != 100 {
				t.Fatalf("remove = %d,%v,%v", v, removed, err)
			}

			// Reserved sentinel keys are typed protocol errors.
			_, _, err = c.Get(math.MaxInt64)
			if pe, ok := wire.IsProtocolError(err); !ok || pe.Code != wire.ErrKeyRange {
				t.Fatalf("sentinel key: %v, want ErrKeyRange", err)
			}
			// The connection survives the error.
			if err := c.Ping(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestStatsEndpoint pins the merged telemetry: counts and histograms per
// opcode across connections (live and closed), transaction counters, and
// identity.
func TestStatsEndpoint(t *testing.T) {
	s := startServer(t, Config{Engine: "tl2", NewTM: func() stm.TM { return tl2.New() }, Shards: 4, CM: "passive"})
	c1 := dial(t, s)
	c2, err := Dial(s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	const puts = 20
	for i := 0; i < puts; i++ {
		if _, err := c1.Put(int64(i), int64(i)); err != nil {
			t.Fatal(err)
		}
		if _, _, err := c2.Get(int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	c2.Close() // half the traffic retires with its connection
	var p wire.StatsPayload
	// The close above races the server's retire; poll briefly until the
	// counts settle.
	deadline := time.Now().Add(2 * time.Second)
	for {
		if err := c1.Stats(&p); err != nil {
			t.Fatal(err)
		}
		if p.Ops[wire.OpGet].Count == puts || time.Now().After(deadline) {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if p.Engine != "tl2" || p.CM != "passive" || p.Shards != 4 {
		t.Fatalf("identity: %+v", p)
	}
	if p.Ops[wire.OpPut].Count != puts || p.Ops[wire.OpGet].Count != puts {
		t.Fatalf("op counts: put=%d get=%d want %d", p.Ops[wire.OpPut].Count, p.Ops[wire.OpGet].Count, puts)
	}
	if p.Ops[wire.OpPut].Hist.Count() != puts {
		t.Fatalf("put histogram count = %d", p.Ops[wire.OpPut].Hist.Count())
	}
	if p.Ops[wire.OpPut].Hist.Quantile(0.5) <= 0 {
		t.Fatal("put latency histogram empty")
	}
	if p.Commits < 2*puts {
		t.Fatalf("commits = %d, want >= %d", p.Commits, 2*puts)
	}
	var causeSum uint64
	for _, n := range p.AbortsByCause {
		causeSum += n
	}
	if causeSum != p.Aborts {
		t.Fatalf("aborts by cause sum %d != aborts %d", causeSum, p.Aborts)
	}
}

// TestPipelining sends a burst of raw frames without reading, then
// expects every response, in order — the protocol's pipelining contract.
func TestPipelining(t *testing.T) {
	s := startServer(t, Config{Engine: "oestm", NewTM: func() stm.TM { return core.New() }})
	nc, err := net.Dial("tcp", s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()

	const n = 50
	var batch []byte
	var body []byte
	for i := 0; i < n; i++ {
		r := wire.Request{Op: wire.OpPut, Key: int64(i), Val: int64(i * 2)}
		body = wire.AppendRequest(body[:0], &r)
		var hdr [4]byte
		binary.BigEndian.PutUint32(hdr[:], uint32(len(body)))
		batch = append(batch, hdr[:]...)
		batch = append(batch, body...)
	}
	for i := 0; i < n; i++ {
		r := wire.Request{Op: wire.OpGet, Key: int64(i)}
		body = wire.AppendRequest(body[:0], &r)
		var hdr [4]byte
		binary.BigEndian.PutUint32(hdr[:], uint32(len(body)))
		batch = append(batch, hdr[:]...)
		batch = append(batch, body...)
	}
	if _, err := nc.Write(batch); err != nil {
		t.Fatal(err)
	}
	var resp wire.Response
	var buf []byte
	for i := 0; i < n; i++ {
		if buf, err = wire.ReadFrame(nc, buf[:0], 0); err != nil {
			t.Fatalf("put response %d: %v", i, err)
		}
		if err := resp.Decode(wire.OpPut, buf); err != nil {
			t.Fatalf("put response %d: %v", i, err)
		}
	}
	for i := 0; i < n; i++ {
		if buf, err = wire.ReadFrame(nc, buf[:0], 0); err != nil {
			t.Fatalf("get response %d: %v", i, err)
		}
		if err := resp.Decode(wire.OpGet, buf); err != nil {
			t.Fatalf("get response %d: %v", i, err)
		}
		if resp.Status != wire.StatusOK || resp.Val != int64(i*2) {
			t.Fatalf("pipelined get %d out of order: %+v", i, resp)
		}
	}
}

// TestWALSyncsPerBurst pins group commit at the turn boundary: a
// pipelined burst of 8 mutations is one server turn, and the turn waits
// for the log once — so the burst costs 8 records but about one flush.
// (A burst split across two socket reads is two turns, hence the bound of
// 2 flushes per burst on average.)
func TestWALSyncsPerBurst(t *testing.T) {
	// "conn" names the connection-thread execution model the test runs on.
	t.Run("conn", func(t *testing.T) {
		s := startServer(t, Config{
			Engine: "oestm", NewTM: func() stm.TM { return core.New() },
			Shards: 8, WALDir: t.TempDir(), Fsync: false,
		})
		c := dial(t, s)
		const depth, bursts = 8, 100
		reqs := make([]wire.Request, depth)
		resps := make([]wire.Response, depth)
		var before, after wire.StatsPayload
		if err := c.Stats(&before); err != nil {
			t.Fatal(err)
		}
		for b := 0; b < bursts; b++ {
			for i := range reqs {
				reqs[i] = wire.Request{Op: wire.OpPut, Key: int64(i), Val: int64(b*depth + i)}
			}
			if err := c.Pipeline(reqs, resps); err != nil {
				t.Fatalf("burst %d: %v", b, err)
			}
			for i := range resps {
				if resps[i].Status != wire.StatusOK {
					t.Fatalf("burst %d request %d: %+v", b, i, resps[i])
				}
			}
		}
		if err := c.Stats(&after); err != nil {
			t.Fatal(err)
		}
		if appends := after.WALAppends - before.WALAppends; appends != depth*bursts {
			t.Errorf("%d records appended over %d bursts of %d puts, want %d", appends, bursts, depth, depth*bursts)
		}
		if syncs := after.WALSyncs - before.WALSyncs; syncs >= 2*bursts {
			t.Errorf("%d log flushes over %d bursts (%.2f per burst), want fewer than 2 per burst",
				syncs, bursts, float64(syncs)/bursts)
		}
	})
}

// TestPartialNextFrameDoesNotStallResponse: a buffered header (or
// partial body) of the NEXT request must not suppress the flush of the
// current response — a peer that waits for the response before sending
// the rest would otherwise deadlock against the server's read.
func TestPartialNextFrameDoesNotStallResponse(t *testing.T) {
	s := startServer(t, Config{Engine: "oestm", NewTM: func() stm.TM { return core.New() }})
	nc, err := net.Dial("tcp", s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	var body []byte
	r := wire.Request{Op: wire.OpPing}
	body = wire.AppendRequest(body, &r)
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(body)))
	// Complete ping + the header of a second frame announcing 10 more
	// bytes that we withhold until the first response arrives.
	var partial [4]byte
	binary.BigEndian.PutUint32(partial[:], 10)
	msg := append(append(append([]byte{}, hdr[:]...), body...), partial[:]...)
	if _, err := nc.Write(msg); err != nil {
		t.Fatal(err)
	}
	nc.SetReadDeadline(time.Now().Add(5 * time.Second))
	buf, err := wire.ReadFrame(nc, nil, 0)
	if err != nil {
		t.Fatalf("ping response stalled behind a partial next frame: %v", err)
	}
	var resp wire.Response
	if derr := resp.Decode(wire.OpPing, buf); derr != nil || resp.Status != wire.StatusOK {
		t.Fatalf("ping response malformed: %v %+v", derr, resp)
	}
}

// TestOversizedFrameRejected pins the hardening satellite: an announced
// length beyond the limit gets a typed error response and a closed
// connection — not a hang, not a silent drop.
func TestOversizedFrameRejected(t *testing.T) {
	s := startServer(t, Config{Engine: "oestm", NewTM: func() stm.TM { return core.New() }, MaxBody: 1 << 10})
	nc, err := net.Dial("tcp", s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], 1<<20) // body we will never send
	if _, err := nc.Write(hdr[:]); err != nil {
		t.Fatal(err)
	}
	nc.SetReadDeadline(time.Now().Add(5 * time.Second))
	buf, err := wire.ReadFrame(nc, nil, 0)
	if err != nil {
		t.Fatalf("expected an error response before close: %v", err)
	}
	var resp wire.Response
	rerr := resp.Decode(wire.OpGet, buf)
	pe, ok := wire.IsProtocolError(rerr)
	if !ok || pe.Code != wire.ErrFrameTooLarge {
		t.Fatalf("got %v, want ErrFrameTooLarge", rerr)
	}
	if _, err := wire.ReadFrame(nc, nil, 0); err != io.EOF {
		t.Fatalf("connection must close after an oversized frame, got %v", err)
	}
}

// TestTruncatedFrameRejected: a stream ending inside a frame gets a typed
// error response on the way down instead of a hung connection.
func TestTruncatedFrameRejected(t *testing.T) {
	s := startServer(t, Config{Engine: "oestm", NewTM: func() stm.TM { return core.New() }})
	nc, err := net.Dial("tcp", s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], 100)
	nc.Write(hdr[:])
	nc.Write([]byte{1, 2, 3}) // 3 of 100 promised bytes
	nc.(*net.TCPConn).CloseWrite()
	nc.SetReadDeadline(time.Now().Add(5 * time.Second))
	buf, err := wire.ReadFrame(nc, nil, 0)
	if err != nil {
		t.Fatalf("expected an error response: %v", err)
	}
	var resp wire.Response
	rerr := resp.Decode(wire.OpGet, buf)
	if pe, ok := wire.IsProtocolError(rerr); !ok || pe.Code != wire.ErrTruncated {
		t.Fatalf("got %v, want ErrTruncated", rerr)
	}
}

// TestMalformedBodyKeepsConnection: a decodable-length frame with a bad
// body is answered with a typed error and the connection keeps serving.
func TestMalformedBodyKeepsConnection(t *testing.T) {
	s := startServer(t, Config{Engine: "oestm", NewTM: func() stm.TM { return core.New() }})
	nc, err := net.Dial("tcp", s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	for i, raw := range [][]byte{
		{200},                  // unknown opcode
		{byte(wire.OpGet), 1},  // short body
		{byte(wire.OpPing), 9}, // trailing bytes
	} {
		var hdr [4]byte
		binary.BigEndian.PutUint32(hdr[:], uint32(len(raw)))
		nc.Write(hdr[:])
		nc.Write(raw)
		nc.SetReadDeadline(time.Now().Add(5 * time.Second))
		buf, err := wire.ReadFrame(nc, nil, 0)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		var resp wire.Response
		if _, ok := wire.IsProtocolError(resp.Decode(wire.OpGet, buf)); !ok {
			t.Fatalf("case %d: expected a typed error response", i)
		}
	}
	// Still serving.
	c := NewClient(nc)
	if err := c.Ping(); err != nil {
		t.Fatalf("connection died after malformed bodies: %v", err)
	}
}

// TestGracefulDrain: Shutdown completes in-flight pipelined work, closes
// idle connections, and refuses new ones.
func TestGracefulDrain(t *testing.T) {
	s := startServer(t, Config{Engine: "lsa", NewTM: func() stm.TM { return lsa.New() }})
	busy := dial(t, s)
	idle := dial(t, s)
	_ = idle
	for i := 0; i < 10; i++ {
		if _, err := busy.Put(int64(i), 1); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("drain did not complete: %v", err)
	}
	// The drained server refuses new connections.
	if _, err := net.DialTimeout("tcp", s.Addr().String(), time.Second); err == nil {
		// Dial may succeed before the OS notices the closed listener, but
		// the connection must be unusable.
		c2, _ := Dial(s.Addr().String())
		if c2 != nil {
			if err := c2.Ping(); err == nil {
				t.Fatal("server accepted work after drain")
			}
			c2.Close()
		}
	}
}

// TestCrossShardAtomicityOverWire is the satellite checker at the outermost
// layer: concurrent CompareAndMove and MGet clients over real sockets.
// Composing engines must never expose a torn state; the estm ablation and
// unsound mode must (same methodology as internal/store's checker — see
// its comments for the GOMAXPROCS and budget rationale).
func TestCrossShardAtomicityOverWire(t *testing.T) {
	run := func(t *testing.T, engName string, newTM func() stm.TM, unsound bool, dur time.Duration) uint64 {
		t.Helper()
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(8))
		s := startServer(t, Config{Engine: engName, NewTM: newTM, Shards: 8, Unsound: unsound, MaxRetries: 500})
		const keys = 64
		const tokenVal = 7
		want := 0
		fill := dial(t, s)
		for k := 0; k < keys; k += 2 {
			if _, err := fill.Put(int64(k), tokenVal); err != nil {
				t.Fatal(err)
			}
			want++
		}
		var stop atomic.Bool
		var violations atomic.Uint64
		var failed atomic.Value
		var wg sync.WaitGroup
		for i := 0; i < 4; i++ {
			wg.Add(1)
			go func(idx int) {
				defer wg.Done()
				cl, err := Dial(s.Addr().String())
				if err != nil {
					failed.Store(err)
					return
				}
				defer cl.Close()
				rng := rand.New(rand.NewPCG(0xbeef, uint64(idx)))
				all := make([]int64, keys)
				for k := range all {
					all[k] = int64(k)
				}
				for !stop.Load() {
					if rng.IntN(100) < 10 {
						vals, present, err := cl.MGet(all)
						if err != nil {
							if pe, ok := wire.IsProtocolError(err); ok && pe.Code == wire.ErrRetryExhausted {
								continue // no consistent observation
							}
							failed.Store(err)
							return
						}
						count := 0
						for k := range all {
							if present[k] {
								count++
								if vals[k] != tokenVal {
									violations.Add(1)
								}
							}
						}
						if count != want {
							violations.Add(1)
						}
						continue
					}
					if _, err := cl.CompareAndMove(int64(rng.IntN(keys)), int64(rng.IntN(keys)), tokenVal); err != nil {
						if pe, ok := wire.IsProtocolError(err); ok && pe.Code == wire.ErrRetryExhausted {
							continue
						}
						failed.Store(err)
						return
					}
				}
			}(i)
		}
		time.Sleep(dur)
		stop.Store(true)
		wg.Wait()
		if err := failed.Load(); err != nil {
			t.Fatalf("worker failed: %v", err)
		}
		// End-state audit on the quiesced store.
		all := make([]int64, keys)
		for k := range all {
			all[k] = int64(k)
		}
		_, present, err := fill.MGet(all)
		if err != nil {
			t.Fatal(err)
		}
		count := 0
		for k := range all {
			if present[k] {
				count++
			}
		}
		if count != want {
			violations.Add(1)
		}
		return violations.Load()
	}

	for _, eng := range engines() {
		if eng.name == "estm" {
			continue
		}
		t.Run(eng.name, func(t *testing.T) {
			if v := run(t, eng.name, eng.newi, false, 150*time.Millisecond); v != 0 {
				t.Errorf("%d torn states observed over the wire on a composing engine", v)
			}
		})
	}
	t.Run("estm-violates", func(t *testing.T) {
		if testing.Short() {
			t.Skip("timing-dependent concurrency test")
		}
		estm := engines()[1]
		for attempt := 0; attempt < 5; attempt++ {
			if v := run(t, "estm", estm.newi, false, time.Duration(100+100*attempt)*time.Millisecond); v > 0 {
				return
			}
		}
		t.Error("estm never tore a CompareAndMove over the wire")
	})
	t.Run("unsound-violates", func(t *testing.T) {
		if testing.Short() {
			t.Skip("timing-dependent concurrency test")
		}
		oestm := engines()[0]
		for attempt := 0; attempt < 5; attempt++ {
			if v := run(t, "oestm", oestm.newi, true, time.Duration(100+100*attempt)*time.Millisecond); v > 0 {
				return
			}
		}
		t.Error("unsound mode never exposed a torn state over the wire")
	})
}

// TestNewValidates pins config validation.
func TestNewValidates(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("missing engine accepted")
	}
	if _, err := New(Config{Engine: "oestm", NewTM: func() stm.TM { return core.New() }, CM: "bogus"}); err == nil {
		t.Fatal("unknown cm accepted")
	}
}

// TestOldWALDirRefused: a WAL directory in the per-shard format is
// refused at New with the log's typed *wal.VersionError (which
// compose-server prints before exiting non-zero), and left as it was.
func TestOldWALDirRefused(t *testing.T) {
	dir := t.TempDir()
	old := filepath.Join(dir, "shard-0000.wal")
	if err := os.WriteFile(old, []byte{1, 2, 3}, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := New(Config{Engine: "oestm", NewTM: func() stm.TM { return core.New() }, WALDir: dir})
	var ve *wal.VersionError
	if !errors.As(err, &ve) {
		t.Fatalf("New on an old-format WAL dir: err = %v, want a *wal.VersionError", err)
	}
	if entries, _ := os.ReadDir(dir); len(entries) != 1 {
		t.Fatalf("the refused directory now holds %d entries", len(entries))
	}
}

// TestClientBufferReuse pins that the client's slices are reused (the
// load generator's closed loop relies on it staying allocation-light).
func TestClientBufferReuse(t *testing.T) {
	s := startServer(t, Config{Engine: "oestm", NewTM: func() stm.TM { return core.New() }})
	c := dial(t, s)
	keys := []int64{1, 2, 3}
	if err := c.MPut(keys, []int64{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	v1, _, err := c.MGet(keys)
	if err != nil {
		t.Fatal(err)
	}
	p1 := &v1[0]
	v2, _, err := c.MGet(keys)
	if err != nil {
		t.Fatal(err)
	}
	if &v2[0] != p1 {
		t.Error("MGet result buffer not reused across calls")
	}
}
