package server

import (
	"context"
	"net"
	"testing"
	"time"

	"oestm/internal/core"
	"oestm/internal/stm"
	"oestm/internal/stmtest"
	"oestm/internal/wire"
)

// wedgedServer starts a conn-mode server on an engine that can be wedged
// on demand, and un-wedges it at cleanup so that no handler outlives the
// test even when it failed.
func wedgedServer(t *testing.T, cfg Config) (*Server, *stmtest.WedgingTM) {
	t.Helper()
	tm := &stmtest.WedgingTM{TM: core.New()}
	cfg.Engine, cfg.NewTM = "oestm", func() stm.TM { return tm }
	s := startServer(t, cfg)
	t.Cleanup(func() { tm.Wedged.Store(false) })
	return s, tm
}

// TestWedgedRequestsGiveUpTyped wedges the engine under a server bounded
// at 8 attempts: each of the eight data opcodes, elementary or composed,
// must answer retry-exhausted within 1 s, append nothing to the log and
// change no key. Once un-wedged, the same connection serves again, so the
// give-up was cleared.
func TestWedgedRequestsGiveUpTyped(t *testing.T) {
	for _, withWAL := range []bool{false, true} {
		name := "wal-off"
		if withWAL {
			name = "wal-on"
		}
		t.Run(name, func(t *testing.T) {
			cfg := Config{Shards: 8, MaxRetries: 8}
			if withWAL {
				cfg.WALDir, cfg.Fsync = t.TempDir(), false
			}
			s, tm := wedgedServer(t, cfg)
			nc, err := net.Dial("tcp", s.Addr().String())
			if err != nil {
				t.Fatal(err)
			}
			c := NewClient(nc)
			t.Cleanup(func() { c.Close() })

			keys := []int64{1, 2, 3, 4, 100}
			if err := c.MPut(keys[:4], []int64{10, 20, 30, 40}); err != nil {
				t.Fatal(err)
			}
			dump := func() [5]int64 {
				vals, oks, err := c.MGet(keys)
				if err != nil {
					t.Fatal(err)
				}
				var d [5]int64
				for i := range d {
					if oks[i] {
						d[i] = vals[i]
					} else {
						d[i] = -1
					}
				}
				return d
			}
			before := dump()
			appends := s.wlog.Stats().Appends

			tm.Wedged.Store(true)
			ops := []struct {
				name string
				do   func() error
			}{
				{"get", func() error { _, _, err := c.Get(1); return err }},
				{"put", func() error { _, err := c.Put(1, 999); return err }},
				{"remove", func() error { _, _, err := c.Remove(3); return err }},
				{"mget", func() error { _, _, err := c.MGet(keys); return err }},
				{"mput", func() error { return c.MPut([]int64{1, 2}, []int64{7, 7}) }},
				{"cam", func() error { _, err := c.CompareAndMove(1, 100, 10); return err }},
				{"add", func() error { return c.Add(2, 5) }},
				{"madd", func() error { return c.MAdd([]int64{3, 4}, []int64{1, 1}) }},
			}
			for _, op := range ops {
				nc.SetDeadline(time.Now().Add(time.Second))
				err := op.do()
				if pe, ok := wire.IsProtocolError(err); !ok || pe.Code != wire.ErrRetryExhausted {
					t.Fatalf("%s on a wedged engine: %v, want retry-exhausted within 1s", op.name, err)
				}
			}
			nc.SetDeadline(time.Time{})
			if got := s.wlog.Stats().Appends; got != appends {
				t.Errorf("requests that gave up appended %d log records", got-appends)
			}

			tm.Wedged.Store(false)
			if after := dump(); after != before {
				t.Errorf("keyspace changed by requests that gave up: %v, was %v", after, before)
			}
			if _, err := c.Put(100, 1); err != nil {
				t.Fatalf("put after un-wedging: %v", err)
			}
		})
	}
}

// TestWedgedShutdownCancelsHandlers wedges an unbounded server
// (MaxRetries 0) with a pipelined burst in flight: the handler spins in
// its retry loop until Shutdown's deadline cancels its thread, and the
// requests still buffered behind the cancelled one must not start a new
// unbounded loop. Shutdown must return, and the handler must have exited,
// within 1 s.
func TestWedgedShutdownCancelsHandlers(t *testing.T) {
	s, tm := wedgedServer(t, Config{Shards: 8})
	c := dial(t, s)
	if _, err := c.Put(1, 1); err != nil {
		t.Fatal(err)
	}
	tm.Wedged.Store(true)
	burst := make([]wire.Request, 4)
	for i := range burst {
		burst[i] = wire.Request{Op: wire.OpPut, Key: int64(i), Val: 2}
	}
	go c.Pipeline(burst, make([]wire.Response, len(burst))) // the replies never matter
	time.Sleep(50 * time.Millisecond)

	start := time.Now()
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	s.Shutdown(ctx)
	for {
		s.mu.Lock()
		live := len(s.conns)
		s.mu.Unlock()
		if live == 0 {
			break
		}
		if time.Since(start) > time.Second {
			t.Fatalf("%d handlers still live 1s after a Shutdown with a 100ms deadline", live)
		}
		time.Sleep(5 * time.Millisecond)
	}
}
