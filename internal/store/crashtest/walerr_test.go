package crashtest

import (
	"testing"

	"oestm/internal/wire"
)

// TestDurabilityErrorAnswered makes the log's writes fail — the child
// server runs under a file-size limit its log soon outgrows — and checks
// the sticky durability contract: from the first failed flush on, every
// mutating response is ErrDurability, in the turn that hit the failure,
// in every later turn, and on a fresh connection that never appended
// before; reads keep serving the in-memory state.
func TestDurabilityErrorAnswered(t *testing.T) {
	t.Setenv(envFSize, "1024")
	// "conn" names the connection-thread execution model the test runs on.
	t.Run("conn", func(t *testing.T) {
		ch := spawn(t, "oestm", 8, false, t.TempDir())
		cl := dialChild(t, ch)
		defer cl.Close()
		reqs := make([]wire.Request, 8)
		resps := make([]wire.Response, 8)
		burst := func(b int) (durErrs int) {
			for i := range reqs {
				reqs[i] = wire.Request{Op: wire.OpPut, Key: int64(i), Val: int64(b)}
			}
			_ = cl.Pipeline(reqs, resps) // outcomes are per response
			for i := range resps {
				switch r := &resps[i]; {
				case r.Status == wire.StatusErr && r.Err == wire.ErrDurability:
					durErrs++
				case r.Status != wire.StatusOK || durErrs != 0:
					t.Fatalf("burst %d request %d: %+v after %d durability errors", b, i, *r, durErrs)
				}
			}
			return durErrs
		}
		b := 0
		for ; burst(b) == 0; b++ {
			if b == 1000 {
				t.Fatal("1000 bursts of puts never outgrew the file-size limit")
			}
		}
		t.Logf("the log failed in burst %d", b)
		if b == 0 {
			t.Fatal("the first burst already failed: no write was acknowledged before the limit")
		}
		if n := burst(b + 1); n != len(reqs) {
			t.Fatalf("the turn after the failure answered %d of %d puts with ErrDurability", n, len(reqs))
		}

		fresh := dialChild(t, ch)
		defer fresh.Close()
		mutations := map[string]func() error{
			"put":  func() error { _, err := fresh.Put(100, 1); return err },
			"mput": func() error { return fresh.MPut([]int64{101, 102}, []int64{1, 2}) },
			"add":  func() error { return fresh.Add(103, 1) },
		}
		for name, op := range mutations {
			err := op()
			if pe, ok := wire.IsProtocolError(err); !ok || pe.Code != wire.ErrDurability {
				t.Errorf("%s on a fresh connection: got %v, want ErrDurability", name, err)
			}
		}
		if _, ok, err := fresh.Get(0); err != nil || !ok {
			t.Errorf("get after the log failed: present %v, err %v; reads must keep serving", ok, err)
		}
	})
}
