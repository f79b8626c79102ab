package store

import (
	"fmt"
	"sync"
	"sync/atomic"

	"oestm/internal/boost"
)

// This file is the hot-key table of the commutative path: counter keys
// promoted out of the read-modify-write transaction flow into boosted
// overlay counters (internal/boost abstract locks with outheritance, per
// the paper's §VIII composition rule). How each opcode class walks the
// table — reads fold, absolute writes fold and kill, deltas bump the
// overlay — is the commit pipeline's business (commit.go; the table in
// ARCHITECTURE.md, "Commit pipeline").
//
// A promoted key's committed value is split in two: the *base* stays in
// the shard's skip list where every transaction can see it, and pending
// deltas accumulate in an *overlay* guarded by the key's abstract lock.
// Adds touch only the overlay — N concurrent adds are N lock handoffs,
// zero STM conflicts — while the key's logical value is always
// base + overlay.
//
// With a WAL, overlays are only ever mutated while additionally holding
// the shard's commit lock, so the established cut invariants survive:
// log order equals commit order, and a snapshot (taken under all commit
// locks) sees overlay state that matches its log position exactly.

// BoostMode selects how the store routes integer-delta operations.
type BoostMode uint8

const (
	// BoostOff disables the commutative path: adds run as composed
	// read-modify-write transactions (the A/B control).
	BoostOff BoostMode = iota
	// BoostAuto promotes a key to the boosted path when the per-shard
	// tracker sees its add transactions abort past a threshold with an
	// add-only op stream (the adaptive default).
	BoostAuto
	// BoostOn promotes every add's key immediately.
	BoostOn
)

// String names the mode the way the -boost flag spells it.
func (m BoostMode) String() string {
	switch m {
	case BoostOff:
		return "off"
	case BoostAuto:
		return "auto"
	case BoostOn:
		return "on"
	}
	return fmt.Sprintf("boost(%d)", uint8(m))
}

// ParseBoostMode parses the -boost flag ("" means auto).
func ParseBoostMode(s string) (BoostMode, error) {
	switch s {
	case "", "auto":
		return BoostAuto, nil
	case "off":
		return BoostOff, nil
	case "on":
		return BoostOn, nil
	}
	return BoostOff, fmt.Errorf("store: unknown boost mode %q (want off, auto or on)", s)
}

// hotCounter is one promoted key's boosted state. overlay and exists are
// guarded by ownership of lock (and, with a WAL, mutated only under the
// shard's commit lock as well — see the file comment); exists records
// that a committed delta landed on this counter, so a counter whose
// deltas net to exactly zero still reads as present (the RMW and batch
// executions materialize presence on every add — a key "created from
// zero" must not flicker absent when its sums cancel); dead marks a
// demoted counter whose overlay has been folded into the base, telling
// lock holders that looked it up before the demotion to retry.
type hotCounter struct {
	lock    boost.Lock
	overlay int64
	exists  bool
	dead    bool
}

// trackSlots is the per-shard tracker size (direct-mapped).
const trackSlots = 64

// promoteAbortThreshold is how many decayed aborts an add-only key
// accumulates before BoostAuto promotes it.
const promoteAbortThreshold = 8

// trackDecayAt halves a slot's counters when its add count passes this,
// keeping the abort rate a recent-history signal rather than a lifetime
// sum.
const trackDecayAt = 256

// trackSlot is one tracked key's decayed counters.
type trackSlot struct {
	key    int64
	adds   uint32
	aborts uint32
}

// shardHot is one shard's hot-key state: the promoted counters and the
// escalation tracker. count gates the lookup fast path — while it is
// zero (boost off, or nothing promoted) the hot path costs one atomic
// load per operation.
type shardHot struct {
	count atomic.Int32
	mu    sync.RWMutex
	keys  map[int64]*hotCounter

	tmu   sync.Mutex
	track [trackSlots]trackSlot
}

// hotOf returns key's live hot counter, or nil.
//
//compose:noalloc
func (s *Store) hotOf(key int64) *hotCounter {
	h := &s.hot[s.ShardOf(key)]
	if h.count.Load() == 0 {
		return nil
	}
	h.mu.RLock()
	hc := h.keys[key]
	h.mu.RUnlock()
	return hc
}

// promote installs a hot counter for key (idempotent) and returns it.
func (s *Store) promote(key int64) *hotCounter {
	h := &s.hot[s.ShardOf(key)]
	h.mu.Lock()
	hc, ok := h.keys[key]
	if !ok {
		hc = &hotCounter{}
		if h.keys == nil {
			h.keys = make(map[int64]*hotCounter)
		}
		h.keys[key] = hc
		h.count.Add(1)
		s.hotPromotions.Add(1)
	}
	h.mu.Unlock()
	return hc
}

// unpromote removes a demoted counter from the table. The caller has
// already folded the overlay and marked the counter dead under its
// abstract lock (idempotent: a repeated key's counter leaves once).
func (s *Store) unpromote(key int64, hc *hotCounter) {
	h := &s.hot[s.ShardOf(key)]
	h.mu.Lock()
	if h.keys[key] == hc {
		delete(h.keys, key)
		h.count.Add(-1)
		s.hotDemotions.Add(1)
	}
	h.mu.Unlock()
}

// slotOf maps key to its tracker slot (same Fibonacci mix as shard
// routing, different bits).
func slotOf(key int64) int {
	return int((uint64(key) * shardMix) >> (64 - 6) % trackSlots)
}

// trackAdd feeds one read-modify-write add's outcome (how many aborts
// the transaction suffered) to key's shard tracker, and reports whether
// the key crossed the promotion threshold: its recent add stream is
// abort-heavy and no absolute operation has touched it since tracking
// began (trackAbsolute resets the slot).
func (s *Store) trackAdd(key int64, aborts uint64) bool {
	h := &s.hot[s.ShardOf(key)]
	sl := &h.track[slotOf(key)]
	h.tmu.Lock()
	if sl.key != key {
		// Direct-mapped steal: the incumbent decays; a persistent new key
		// takes the slot once the incumbent's history has faded.
		sl.adds >>= 1
		sl.aborts >>= 1
		if sl.adds == 0 {
			*sl = trackSlot{key: key}
		} else {
			h.tmu.Unlock()
			return false
		}
	}
	sl.adds++
	if aborts > promoteAbortThreshold {
		// Clamp: one pathological transaction must not wrap the uint32
		// accumulator, and past the threshold extra aborts carry no signal.
		aborts = promoteAbortThreshold
	}
	sl.aborts += uint32(aborts)
	if sl.adds >= trackDecayAt {
		sl.adds >>= 1
		sl.aborts >>= 1
	}
	promote := sl.aborts >= promoteAbortThreshold
	if promote {
		*sl = trackSlot{}
	}
	h.tmu.Unlock()
	return promote
}

// trackAbsolute records an absolute operation on key: if the key was
// being tracked toward promotion, its history resets — the stream is
// not add-only.
func (s *Store) trackAbsolute(key int64) {
	h := &s.hot[s.ShardOf(key)]
	sl := &h.track[slotOf(key)]
	h.tmu.Lock()
	if sl.key == key {
		*sl = trackSlot{}
	}
	h.tmu.Unlock()
}

// BoostStats is a snapshot of the commutative-path counters, exported
// through the server's stats endpoint into the adds/boosted_ops/
// hot_promotions CSV columns.
type BoostStats struct {
	Adds       uint64 // deltas applied (Add ops plus MAdd entries), any path
	BoostedOps uint64 // deltas that ran on the boosted overlay path
	Promotions uint64 // keys promoted to the boosted path
	Demotions  uint64 // keys demoted (folded back) by absolute operations
}

// BoostStats snapshots the counters.
func (s *Store) BoostStats() BoostStats {
	return BoostStats{
		Adds:       s.adds.Load(),
		BoostedOps: s.boostedOps.Load(),
		Promotions: s.hotPromotions.Load(),
		Demotions:  s.hotDemotions.Load(),
	}
}

// BoostMode returns the store's configured mode.
func (s *Store) BoostMode() BoostMode { return s.boostMode }
