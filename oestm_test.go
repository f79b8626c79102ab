package oestm_test

import (
	"errors"
	"testing"

	"oestm"
)

// TestFacadeEngines checks every public constructor produces the engine
// it names.
func TestFacadeEngines(t *testing.T) {
	cases := map[string]oestm.TM{
		"oestm":         oestm.NewOESTM(),
		"estm":          oestm.NewESTM(),
		"oestm-regular": oestm.NewRegularOnlySTM(),
		"tl2":           oestm.NewTL2(),
		"lsa":           oestm.NewLSA(),
		"swisstm":       oestm.NewSwissTM(),
	}
	for want, tm := range cases {
		if tm.Name() != want {
			t.Fatalf("constructor for %q built %q", want, tm.Name())
		}
	}
	if oestm.NewRegularOnlySTM().SupportsElastic() {
		t.Fatal("regular-only engine must not claim elastic support")
	}
}

func TestFacadeCollections(t *testing.T) {
	tm := oestm.NewOESTM()
	th := oestm.NewThread(tm)
	for _, s := range []oestm.Set{
		oestm.NewLinkedListSet(),
		oestm.NewSkipListSet(),
		oestm.NewHashSet(4),
		oestm.NewHashSetForLoad(2048),
	} {
		if !s.Add(th, 1) || !s.Contains(th, 1) || !s.Remove(th, 1) {
			t.Fatalf("%s: basic ops broken", s.Name())
		}
	}
}

func TestFacadeVarsAndAtomic(t *testing.T) {
	tm := oestm.NewOESTM()
	th := oestm.NewThread(tm)
	v := oestm.NewVar(10)
	err := th.Atomic(oestm.Regular, func(tx oestm.Tx) error {
		n := oestm.Read[int](tx, v)
		tx.Write(v, n*2)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	_ = th.Atomic(oestm.Elastic, func(tx oestm.Tx) error {
		if got := oestm.Read[int](tx, v); got != 20 {
			t.Errorf("v = %d, want 20", got)
		}
		return nil
	})
}

func TestFacadeConflictRetry(t *testing.T) {
	tm := oestm.NewOESTM()
	th := oestm.NewThread(tm)
	attempts := 0
	err := th.Atomic(oestm.Regular, func(tx oestm.Tx) error {
		attempts++
		if attempts == 1 {
			oestm.Conflict("try again")
		}
		return nil
	})
	if err != nil || attempts != 2 {
		t.Fatalf("err=%v attempts=%d", err, attempts)
	}
	th.MaxRetries = 1
	err = th.Atomic(oestm.Regular, func(tx oestm.Tx) error {
		oestm.Conflict("always")
		return nil
	})
	if !errors.Is(err, oestm.ErrConflict) {
		t.Fatalf("err = %v, want ErrConflict", err)
	}
}

func TestFacadeMapAndQueue(t *testing.T) {
	tm := oestm.NewOESTM()
	th := oestm.NewThread(tm)
	m := oestm.NewSkipListMap()
	if !m.PutIfAbsent(th, 1, -1<<40) || m.Size(th) != 1 {
		t.Fatal("facade map broken")
	}
	if v, ok := m.Get(th, 1); !ok || v != -1<<40 {
		t.Fatalf("facade map Get = %d,%v, want %d,true", v, ok, int64(-1<<40))
	}
	q := oestm.NewQueue()
	q.Enqueue(th, 7)
	if v, ok := q.Dequeue(th); !ok || v != 7 {
		t.Fatal("facade queue broken")
	}
}

func TestFacadeCompositionHelpers(t *testing.T) {
	tm := oestm.NewOESTM()
	th := oestm.NewThread(tm)
	a, b := oestm.NewLinkedListSet(), oestm.NewSkipListSet()
	if !oestm.InsertIfAbsent(th, a, 1, 2) {
		t.Fatal("InsertIfAbsent failed")
	}
	if !oestm.Move(th, a, b, 1) {
		t.Fatal("Move failed")
	}
	if a.Contains(th, 1) || !b.Contains(th, 1) {
		t.Fatal("Move did not transfer")
	}
}
