package stmtest

import (
	"sync/atomic"

	"oestm/internal/mvar"
	"oestm/internal/stm"
)

// WedgingTM wraps an engine so that every top-level commit fails while
// Wedged is set: each transaction then retries until its thread gives up,
// the shape of the estm wedge (a structure on which every attempt
// conflicts). With Torn also set, a wedged attempt aborts at its second
// read instead, so its body gives up part-way with whatever it had
// accumulated. Clearing Wedged lets the next attempt commit. Harness,
// store and server tests share this one engine to test that giving up
// stays typed and bounded.
type WedgingTM struct {
	stm.TM
	Wedged, Torn atomic.Bool
}

type wedgedTx struct {
	stm.TxControl
	torn  bool
	reads int
}

// Begin starts a top-level transaction, doomed while the engine is wedged.
func (w *WedgingTM) Begin(th *stm.Thread, k stm.Kind) stm.TxControl {
	tx := w.TM.Begin(th, k)
	if w.Wedged.Load() {
		return &wedgedTx{TxControl: tx, torn: w.Torn.Load()}
	}
	return tx
}

// BeginNested starts a child on the wrapped engine: a doomed parent
// fails at its own commit.
func (w *WedgingTM) BeginNested(th *stm.Thread, parent stm.TxControl, k stm.Kind) stm.TxControl {
	if p, ok := parent.(*wedgedTx); ok {
		parent = p.TxControl
	}
	return w.TM.BeginNested(th, parent, k)
}

func (t *wedgedTx) ReadWord(w *mvar.Word) mvar.Raw {
	if t.reads++; t.torn && t.reads > 1 {
		stm.Abort(stm.CauseReadValidation)
	}
	return t.TxControl.ReadWord(w)
}

// Commit rolls the attempt back, releasing whatever the engine acquired
// eagerly, and fails it.
func (t *wedgedTx) Commit() error {
	t.TxControl.Rollback()
	return stm.ConflictOf(stm.CauseLockBusy)
}
