package store

import (
	"errors"

	"oestm/internal/boost"
	"oestm/internal/stm"
	"oestm/internal/wal"
)

// This file is the store's one commit pipeline. Every mutating opcode —
// Frame operations and Applier commits alike — is a list of effects
// pushed through the same steps:
//
//	resolve hot counters → (any involved: acquire their abstract locks in
//	one boosted transaction) → commit locks ascending, promotions
//	re-checked under them → body → effects to one record → unlock
//	descending
//
// The group-commit wait is not a step of the walk: it belongs to the
// caller's durability point (Frame.WALErr, once per server turn; the end
// of Applier.Finish for a batch), so one log write covers every mutation
// a turn committed.
//
// ARCHITECTURE.md ("Commit pipeline") tabulates, per opcode, the
// linearization step, the locks held at it and the record shape. The
// helpers in the first half are the single copy of each rule and are
// shared with the Applier; the second half is the Frame's walk through
// them.

// errHotDead restarts a pipeline walk whose view of the hot table went
// stale: a counter it looked up was demoted before its abstract lock was
// acquired, or a key it saw cold was promoted before the commit locks
// were held.
var errHotDead = errors.New("store: hot-key table changed under the operation")

// insertShard adds sh to a sorted unique shard set — the participant set
// of a mutation, kept ascending because that is the lock order.
//
//compose:noalloc
func insertShard(set []int, sh int) []int {
	for i, s := range set {
		if s == sh {
			return set
		}
		if s > sh {
			set = append(set, 0)
			copy(set[i+1:], set[i:])
			set[i] = sh
			return set
		}
	}
	return append(set, sh)
}

// lockShards takes the participants' commit locks in ascending index
// order — the one global order every multi-shard lock site uses
// (Store.Snapshot included), so mutations cannot deadlock. The commit
// locks live in the log; without one there is nothing to order.
func (s *Store) lockShards(shards []int) {
	if s.wal != nil {
		for _, sh := range shards {
			s.wal.Lock(sh)
		}
	}
}

// unlockShards releases in reverse.
func (s *Store) unlockShards(shards []int) {
	if s.wal != nil {
		for i := len(shards) - 1; i >= 0; i-- {
			s.wal.Unlock(shards[i])
		}
	}
}

// apply applies one effect to its key's shard map on th and returns the
// key's previous value and presence. A delta is a get+put pair (creating
// the key from zero): outside single-threaded recovery the caller wraps it
// in an enclosing transaction.
func (s *Store) apply(th *stm.Thread, ef *wal.Effect) (old int64, ok bool) {
	m := s.shard(ef.Key)
	switch {
	case ef.Remove:
		return m.Remove(th, int(ef.Key))
	case ef.Delta:
		old, ok = m.Get(th, int(ef.Key))
		m.Put(th, int(ef.Key), old+ef.Val)
		return old, ok
	}
	return m.Put(th, int(ef.Key), ef.Val)
}

// opClass is how an operation relates to promoted counters (see hot.go).
type opClass uint8

const (
	// classRead folds the overlays of the hot keys it covers.
	classRead opClass = iota
	// classAbsolute writes values that must not sit under a live
	// overlay: it folds and kills every hot counter it covers.
	classAbsolute
	// classDelta adds commutative deltas: to the overlays when every key
	// is promoted, to the bases (one composed read-modify-write
	// transaction) otherwise.
	classDelta
)

// stage describes the mutation in flight: its class and keys, and one
// put (or delta) effect per key. Operations whose effects depend on what
// the body finds (Remove, CompareAndMove) edit f.effects afterwards.
//
//compose:noalloc
func (f *Frame) stage(class opClass, keys, vals []int64) {
	f.class, f.keys = class, keys
	f.effects = f.effects[:0]
	for i, k := range keys {
		f.effects = append(f.effects, wal.Effect{Delta: class == classDelta, Shard: f.st.ShardOf(k), Key: k, Val: vals[i]})
	}
}

// resolve looks up the hot counter of every key of the operation in
// flight (f.hcs[i] belongs to f.keys[i]; nil = cold) and reports whether
// the operation must run fused — inside one boosted transaction holding
// the abstract locks of the counters found. A delta operation is fused
// only when every key is promoted (BoostOn promotes the stragglers): a
// mixed set runs on the bases alone, which commutes with the overlays.
//
//compose:noalloc
func (f *Frame) resolve() bool {
	s := f.st
	f.hcs = f.hcs[:0]
	fused := false
	for _, k := range f.keys {
		hc := s.hotOf(k)
		switch f.class {
		case classDelta:
			if hc == nil {
				if s.boostMode != BoostOn {
					return false
				}
				hc = s.promote(k)
			}
		case classAbsolute:
			if s.boostMode == BoostAuto {
				s.trackAbsolute(k) // the key's stream is not add-only
			}
		}
		fused = fused || hc != nil
		f.hcs = append(f.hcs, hc)
	}
	return fused
}

// acquire takes the abstract lock of every resolved counter and fails
// with errHotDead if one was demoted since the lookup.
//
//compose:noalloc
func (f *Frame) acquire(tx *boost.Tx) error {
	for _, hc := range f.hcs {
		if hc != nil {
			tx.Acquire(&hc.lock)
			if hc.dead {
				return errHotDead
			}
		}
	}
	return nil
}

// promoted reports whether a key resolve saw cold has been promoted
// since. Absolute operations ask under the commit locks: overlay
// mutations and add records both require the commit lock, so a key still
// cold there cannot get an add record before the operation's own record
// lands (without a log there is no such lock and the check only narrows
// the window). Reads ask once their abstract locks are held: a key
// promoted in between may already hold half of a completed composed
// MAdd whose other half sits in a locked sibling's overlay.
//
//compose:noalloc
func (f *Frame) promoted() bool {
	for i, k := range f.keys {
		if f.hcs[i] == nil && f.st.hotOf(k) != nil {
			return true
		}
	}
	return false
}

// commit pushes the staged mutation through the pipeline. Its record is
// appended, not yet durable: f.wSeq keeps the frame's highest appended
// sequence, and WALErr waits for it. If the walk gives up (see Err), the
// mutation did not happen: at most, hot counters were folded back into
// their bases, which changes no key's value.
//
//compose:noalloc
func (f *Frame) commit() {
	s := f.st
	f.wShards = f.wShards[:0]
	if s.wal != nil {
		for _, k := range f.keys {
			f.wShards = insertShard(f.wShards, s.ShardOf(k))
		}
	}
	var err error
	for {
		if f.fused = f.resolve(); f.fused {
			err = f.bth.Atomic(f.fusedFn)
			for i, hc := range f.hcs[:f.killed] {
				if hc != nil {
					s.unpromote(f.keys[i], hc)
				}
			}
			f.killed = 0
		} else {
			err = f.locked()
		}
		if err != errHotDead {
			break
		}
	}
	if err != nil {
		f.err = err
		return
	}
	if f.fused && f.class == classDelta {
		s.boostedOps.Add(uint64(len(f.keys)))
	}
}

// fusedBody is commit's boosted transaction: every abstract lock is held
// before the first mutation, so a lock conflict or a demoted counter
// restarts with nothing to compensate.
//
//compose:noalloc
func (f *Frame) fusedBody(tx *boost.Tx) error {
	if err := f.acquire(tx); err != nil {
		return err
	}
	return f.locked()
}

// locked is the pipeline's critical section: commit locks, re-check,
// body, the one record, unlock.
//
//compose:noalloc
func (f *Frame) locked() error {
	s := f.st
	s.lockShards(f.wShards)
	err := f.mutate()
	if err == nil && s.wal != nil && len(f.effects) != 0 {
		f.wSeq = s.wal.Append(f.effects)
	}
	s.unlockShards(f.wShards)
	return err
}

// mutate runs the staged mutation's body under the locks locked took.
//
//compose:noalloc
func (f *Frame) mutate() error {
	switch {
	case f.class == classDelta && f.fused:
		// The linearization step of a boosted delta: overlays move under
		// their abstract locks (and commit locks, so a snapshot's overlay
		// values match its log cut). No transactional read, no conflict.
		for i, hc := range f.hcs {
			hc.overlay += f.effects[i].Val
			hc.exists = true
		}
		return nil
	case f.class == classAbsolute:
		if f.promoted() {
			return errHotDead
		}
		if f.fused {
			if err := f.demote(); err != nil {
				return err
			}
		}
	}
	if f.body == nil {
		// Elementary: the effect is one individually atomic eec operation,
		// which reports a give-up only as a new th.Err(); it then applied
		// nothing and must log nothing. A remove that found nothing
		// mutated nothing and logs nothing either.
		e0 := f.th.Err()
		f.prev, f.hit = f.st.apply(f.th, &f.effects[0])
		if err := f.th.Err(); err != e0 {
			return err
		}
		if f.effects[0].Remove && !f.hit {
			f.effects = f.effects[:0]
		}
		return nil
	}
	return f.th.Atomic(f.kind, f.body)
}

// demote folds and kills the counters an absolute operation holds, so
// its write lands on plain state: the overlay is added to the base entry
// in one transaction, and a counter created purely by deltas that netted
// to zero materializes a base entry of 0 — presence must survive the
// demotion exactly as it read while hot. No record is written: the add
// records already logged reproduce the overlay at replay, presence
// included. f.killed counts the leading counters done, for commit to
// unpromote once the abstract locks are released — until then the dead
// counters stay in the table, holding concurrent adders off the key.
func (f *Frame) demote() error {
	for i, hc := range f.hcs {
		if hc != nil && !hc.dead { // dead: a repeated key, already folded
			if hc.overlay != 0 || hc.exists {
				f.foldEf = wal.Effect{Delta: true, Key: f.keys[i], Val: hc.overlay}
				if err := f.th.Atomic(f.kind, f.foldFn); err != nil {
					return err
				}
			}
			hc.overlay, hc.dead = 0, true
		}
		f.killed = i + 1
	}
	return nil
}
