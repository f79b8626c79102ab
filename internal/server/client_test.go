package server

import (
	"math"
	"testing"

	"oestm/internal/core"
	"oestm/internal/stm"
	"oestm/internal/wire"
)

// oestmClient starts one oestm server and dials it.
func oestmClient(t *testing.T) *Client {
	t.Helper()
	s := startServer(t, Config{Engine: "oestm", NewTM: func() stm.TM { return core.New() }, Shards: 8})
	return dial(t, s)
}

// TestPipelineErrorSlotKeepsSync pins that an error response inside a
// burst is that request's outcome, not the end of the burst: the later
// requests' responses land in their own slots, and the next burst on the
// same client reads its own responses, not stale ones.
func TestPipelineErrorSlotKeepsSync(t *testing.T) {
	// "conn" names the connection-thread execution model the test runs on.
	t.Run("conn", func(t *testing.T) {
		c := oestmClient(t)
		reqs := []wire.Request{
			{Op: wire.OpGet, Key: math.MaxInt64}, // a reserved sentinel key
			{Op: wire.OpPut, Key: 5, Val: -1 << 40},
			{Op: wire.OpGet, Key: 5},
		}
		resps := make([]wire.Response, len(reqs))
		err := c.Pipeline(reqs, resps)
		if pe, ok := wire.IsProtocolError(err); !ok || pe.Code != wire.ErrKeyRange {
			t.Fatalf("burst error = %v, want ErrKeyRange", err)
		}
		if r := resps[0]; r.Status != wire.StatusErr || r.Err != wire.ErrKeyRange {
			t.Fatalf("slot 0 = status %d err %v, want ErrKeyRange", r.Status, r.Err)
		}
		if r := resps[1]; r.Status != wire.StatusOK || r.Flag {
			t.Fatalf("slot 1 (fresh put) = status %d existed %v", r.Status, r.Flag)
		}
		if r := resps[2]; r.Status != wire.StatusOK || r.Val != -1<<40 {
			t.Fatalf("slot 2 (get) = status %d val %d, want %d", r.Status, r.Val, int64(-1<<40))
		}

		next := []wire.Request{{Op: wire.OpRemove, Key: 5}, {Op: wire.OpGet, Key: 5}}
		resps = resps[:len(next)]
		if err := c.Pipeline(next, resps); err != nil {
			t.Fatalf("next burst: %v", err)
		}
		if r := resps[0]; r.Status != wire.StatusOK || !r.Flag || r.Val != -1<<40 {
			t.Fatalf("next burst remove = status %d removed %v val %d", r.Status, r.Flag, r.Val)
		}
		if r := resps[1]; r.Status != wire.StatusNotFound {
			t.Fatalf("next burst get = status %d, want not-found", r.Status)
		}
	})
}

// TestValueDomainWire sends the value domain — the int64 extremes, -1, 0
// and a wide value — through every data opcode over the wire: values are
// never reserved, so each must come back unchanged.
func TestValueDomainWire(t *testing.T) {
	domain := []int64{math.MinInt64, math.MaxInt64, -1, 0, 1 << 40}
	// "conn" names the connection-thread execution model the test runs on.
	t.Run("conn", func(t *testing.T) {
		c := oestmClient(t)
		mkeys, akeys := make([]int64, len(domain)), make([]int64, len(domain))
		for i, v := range domain {
			k, moved, added := int64(10+i), int64(110+i), int64(210+i)
			mkeys[i], akeys[i] = int64(310+i), int64(410+i)
			if _, err := c.Put(k, v); err != nil {
				t.Fatal(err)
			}
			if got, ok, err := c.Get(k); err != nil || !ok || got != v {
				t.Fatalf("Get(%d) = %d,%v,%v want %d", k, got, ok, err, v)
			}
			if ok, err := c.CompareAndMove(k, moved, v); err != nil || !ok {
				t.Fatalf("CompareAndMove(%d, %d) = %v,%v", k, v, ok, err)
			}
			if got, ok, err := c.Remove(moved); err != nil || !ok || got != v {
				t.Fatalf("Remove(%d) = %d,%v,%v want %d", moved, got, ok, err, v)
			}
			if err := c.Add(added, v); err != nil {
				t.Fatal(err)
			}
			if got, ok, err := c.Get(added); err != nil || !ok || got != v {
				t.Fatalf("Add from absent: Get(%d) = %d,%v,%v want %d", added, got, ok, err, v)
			}
		}
		if err := c.MPut(mkeys, domain); err != nil {
			t.Fatal(err)
		}
		if err := c.MAdd(akeys, domain); err != nil {
			t.Fatal(err)
		}
		vals, present, err := c.MGet(append(mkeys, akeys...))
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range vals {
			if want := domain[i%len(domain)]; !present[i] || v != want {
				t.Fatalf("MGet[%d] = %d,%v want %d,true", i, v, present[i], want)
			}
		}
	})
}
