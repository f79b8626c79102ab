// scenario.go provides the composed-transaction scenario suite: workloads
// whose every operation is a *composition* of elementary operations
// (across two structures, or an elementary operation plus a condition),
// together with the machine-checkable invariant each composition must
// preserve. The single-structure mix of Gen covers the paper's Figs. 6-8;
// the scenarios cover the operations that motivate composition in the
// first place (§I, Fig. 1): move, insert-if-absent, bank transfers, and a
// producer/stage/consumer pipeline.
//
// Every scenario supports an Unsound mode that executes each composition
// as separate top-level transactions — the non-composable baseline of the
// paper's introduction. Its invariant checkers are expected to fire in
// that mode; they must stay silent on every transactional engine.
package workload

import (
	"math/rand/v2"
	"sync/atomic"

	"oestm/internal/eec"
	"oestm/internal/mvar"
	"oestm/internal/stm"
)

// ScenarioConfig parameterises the composed-transaction scenarios. The
// zero value is not useful; use DefaultScenarioConfig.
type ScenarioConfig struct {
	// Keys is the key universe per structure (move, insert-if-absent).
	Keys int
	// Accounts is the number of bank accounts (bank).
	Accounts int
	// InitialBalance is the starting balance per account (bank).
	InitialBalance int
	// MaxTransfer bounds the per-transfer amount (bank).
	MaxTransfer int
	// AuditPct is the percentage of steps that run the scenario's atomic
	// invariant audit instead of a mutation.
	AuditPct int
	// Unsound runs each composed operation as separate top-level
	// transactions, deliberately breaking atomicity. The invariant
	// checkers are expected to report violations in this mode; it exists
	// for the checker tests and for demonstration runs.
	Unsound bool
	// Seed randomises the per-thread generators deterministically.
	Seed uint64
	// Dist selects the key distribution the workers draw their targets
	// from (see dist.go): move keys, insert-if-absent pair indices, and
	// bank source accounts. The zero value is uniform. The pipeline
	// scenario is key-free (queues have no key axis), so Dist does not
	// apply there.
	Dist DistConfig
}

// DefaultScenarioConfig returns the standard scenario sizing: small
// enough that invariant audits stay cheap, large enough for real
// contention.
func DefaultScenarioConfig() ScenarioConfig {
	return ScenarioConfig{
		Keys:           256,
		Accounts:       64,
		InitialBalance: 1000,
		MaxTransfer:    100,
		AuditPct:       5,
		Seed:           0xc0135e,
	}
}

// Scaled shrinks the scenario sizes by factor (for quick tests).
func (cfg ScenarioConfig) Scaled(factor int) ScenarioConfig {
	if factor > 1 {
		cfg.Keys = max(4, cfg.Keys/factor)
		cfg.Accounts = max(2, cfg.Accounts/factor)
	}
	return cfg
}

// Worker is the per-thread face of a scenario: Step runs one operation
// (mutation or audit) on the thread the worker was created for. An audit
// whose transaction gave up instead of committing (stm.Thread.Cancel or a
// retry budget; the thread's Err is set after the step) records no
// violation: what it read was never validated. The caller clears Err
// before stepping the worker again.
type Worker interface{ Step() }

// Scenario is one composed-transaction workload instance. A Scenario is
// built fresh per measurement run (its structures are engine-agnostic;
// the engine is carried by the threads driving it). Violations counts
// invariant failures observed by mid-run audits and by the final Check;
// it must be zero on every transactional engine and is expected to be
// non-zero for Unsound runs under concurrency.
type Scenario interface {
	// Name identifies the scenario ("move", "bank", ...).
	Name() string
	// Structures labels the structures the scenario runs on, for
	// reporting ("linkedlist+hashset", "skiplistmap", ...).
	Structures() string
	// Fill populates the initial state.
	Fill(th *stm.Thread)
	// NewWorker returns the step generator for one worker goroutine; th
	// must be the thread that goroutine will run on (the worker binds
	// its transaction closures to it once, so steps stay closure-free).
	NewWorker(th *stm.Thread, idx int) Worker
	// Violations returns the number of invariant violations observed so
	// far.
	Violations() uint64
	// Check verifies the end-state invariant on a quiesced scenario,
	// adding any failure to Violations.
	Check(th *stm.Thread)
}

// ScenarioNames lists the registered scenarios.
func ScenarioNames() []string {
	return []string{"move", "insert-if-absent", "bank", "pipeline"}
}

// ScenarioKeyed reports whether a scenario draws its targets through the
// key-distribution layer. The pipeline is key-free (queues have no key
// axis), so sweeping distributions over it would re-measure identical
// workloads under misleading labels; the harness collapses its dist axis
// to uniform.
func ScenarioKeyed(name string) bool { return name != "pipeline" }

// NewScenario builds a fresh scenario instance by name; ok is false for
// unknown names.
func NewScenario(name string, cfg ScenarioConfig) (Scenario, bool) {
	switch name {
	case "move":
		return newMoveScenario(cfg), true
	case "insert-if-absent":
		return newIIAScenario(cfg), true
	case "bank":
		return newBankScenario(cfg), true
	case "pipeline":
		return newPipelineScenario(cfg), true
	default:
		return nil, false
	}
}

// scenarioRNG seeds one worker's deterministic generator.
func scenarioRNG(cfg ScenarioConfig, idx int) *rand.Rand {
	return rand.New(rand.NewPCG(cfg.Seed, uint64(idx)+1))
}

// scenarioSampler builds one worker's key sampler over a scenario's key
// universe (samplers are per-thread: shifting-hotspot keeps draw state).
func scenarioSampler(cfg ScenarioConfig, keyRange int) Sampler {
	return NewSampler(cfg.Dist, keyRange)
}

// ------------------------------------------------------------------ move --

// moveScenario shuffles keys between a linked list and a hash set with
// eec.Move — composition across *different* structure implementations.
// Invariant: every key lives in exactly one of the two sets, so the
// combined size equals the initial key count at every atomic snapshot.
// The unsound remove-then-add leaves keys in flight between the two
// transactions, which the audits observe as missing.
type moveScenario struct {
	cfg        ScenarioConfig
	a, b       eec.Set
	violations atomic.Uint64
}

func newMoveScenario(cfg ScenarioConfig) *moveScenario {
	return &moveScenario{
		cfg: cfg,
		a:   eec.NewLinkedListSet(),
		b:   eec.NewHashSet(max(1, cfg.Keys/16)),
	}
}

func (s *moveScenario) Name() string       { return "move" }
func (s *moveScenario) Structures() string { return "linkedlist+hashset" }
func (s *moveScenario) Violations() uint64 { return s.violations.Load() }

func (s *moveScenario) Fill(th *stm.Thread) {
	for k := 0; k < s.cfg.Keys; k++ {
		if k%2 == 0 {
			s.a.Add(th, k)
		} else {
			s.b.Add(th, k)
		}
	}
}

type moveWorker struct {
	s       *moveScenario
	th      *stm.Thread
	rng     *rand.Rand
	keys    Sampler
	total   int
	auditFn func(stm.Tx) error
}

func (s *moveScenario) NewWorker(th *stm.Thread, idx int) Worker {
	w := &moveWorker{s: s, th: th, rng: scenarioRNG(s.cfg, idx), keys: scenarioSampler(s.cfg, s.cfg.Keys)}
	w.auditFn = func(stm.Tx) error {
		w.total = s.a.Size(w.th) + s.b.Size(w.th)
		return nil
	}
	return w
}

func (w *moveWorker) Step() {
	s := w.s
	if w.rng.IntN(100) < s.cfg.AuditPct {
		if err := w.th.Atomic(stm.Regular, w.auditFn); err == nil && w.total != s.cfg.Keys {
			s.violations.Add(1)
		}
		return
	}
	k := w.keys.Next(w.rng)
	from, to := eec.Set(s.a), eec.Set(s.b)
	if w.rng.IntN(2) == 1 {
		from, to = to, from
	}
	if s.cfg.Unsound {
		// Two separate transactions: the key is in neither set between
		// them.
		if from.Remove(w.th, k) {
			to.Add(w.th, k)
		}
		return
	}
	eec.Move(w.th, from, to, k)
}

func (s *moveScenario) Check(th *stm.Thread) {
	total, dup := 0, 0
	_ = th.Atomic(stm.Regular, func(stm.Tx) error {
		total, dup = 0, 0
		for k := 0; k < s.cfg.Keys; k++ {
			inA, inB := s.a.Contains(th, k), s.b.Contains(th, k)
			if inA && inB {
				dup++
			}
			if inA || inB {
				total++
			}
		}
		return nil
	})
	if total != s.cfg.Keys {
		s.violations.Add(1)
	}
	s.violations.Add(uint64(dup))
}

// ------------------------------------------------------- insert-if-absent --

// iiaScenario exercises the paper's Fig. 1 composition on a skip list:
// keys come in exclusion pairs (2i, 2i+1), and a member is only ever
// inserted via InsertIfAbsent(member, partner). Invariant: no pair is
// ever fully present. Two unsound inserters racing on the same pair leave
// both members in the set, which the audits and the end-state check
// observe.
type iiaScenario struct {
	cfg        ScenarioConfig
	s          eec.Set
	pairs      int
	violations atomic.Uint64
}

func newIIAScenario(cfg ScenarioConfig) *iiaScenario {
	return &iiaScenario{cfg: cfg, s: eec.NewSkipListSet(), pairs: max(1, cfg.Keys/2)}
}

func (s *iiaScenario) Name() string       { return "insert-if-absent" }
func (s *iiaScenario) Structures() string { return "skiplist" }
func (s *iiaScenario) Violations() uint64 { return s.violations.Load() }

func (s *iiaScenario) Fill(th *stm.Thread) {
	// Half the pairs start with their even member present, so removes and
	// blocked inserts have material from the first step on.
	for i := 0; i < s.pairs; i += 2 {
		s.s.Add(th, 2*i)
	}
}

type iiaWorker struct {
	s     *iiaScenario
	th    *stm.Thread
	rng   *rand.Rand
	pairs Sampler
}

func (s *iiaScenario) NewWorker(th *stm.Thread, idx int) Worker {
	return &iiaWorker{s: s, th: th, rng: scenarioRNG(s.cfg, idx), pairs: scenarioSampler(s.cfg, s.pairs)}
}

func (w *iiaWorker) Step() {
	s := w.s
	r := w.rng.IntN(100)
	if r < s.cfg.AuditPct {
		// The audit must be a true snapshot, which Elements provides (one
		// Regular transaction reading the structure directly). Composing
		// elastic Contains children would not do: a read-only elastic
		// child only outherits its last read, so the pair of lookups
		// would not be validated as one atomic observation.
		full := fullPairs(s.s.Elements(w.th))
		if w.th.Err() == nil {
			s.violations.Add(uint64(full))
		}
		return
	}
	i := w.pairs.Next(w.rng)
	x, y := 2*i, 2*i+1
	if w.rng.IntN(2) == 1 {
		x, y = y, x
	}
	if r < s.cfg.AuditPct+40 {
		s.s.Remove(w.th, x)
		return
	}
	if s.cfg.Unsound {
		// Check and insert in separate transactions: two racing inserters
		// can each miss the other's member and insert both.
		if !s.s.Contains(w.th, y) {
			s.s.Add(w.th, x)
		}
		return
	}
	eec.InsertIfAbsent(w.th, s.s, x, y)
}

func (s *iiaScenario) Check(th *stm.Thread) {
	s.violations.Add(uint64(fullPairs(s.s.Elements(th))))
}

// fullPairs counts exclusion pairs (2i, 2i+1) with both members present
// in a sorted snapshot.
func fullPairs(sorted []int) int {
	n := 0
	for j := 0; j+1 < len(sorted); j++ {
		if sorted[j]%2 == 0 && sorted[j+1] == sorted[j]+1 {
			n++
		}
	}
	return n
}

// ------------------------------------------------------------------ bank --

// bankScenario transfers money between accounts held in an eec.SkipListMap
// with SkipListMap.Transfer (a Get/Put composition). Invariant: the total
// balance is constant at every atomic snapshot — the audit is SumInt, one
// whole-map transaction. The unsound withdraw-then-deposit leaves money in
// flight between the two transactions and loses updates when two
// withdrawals race on one account, so both the audits and the end-state
// check observe it.
type bankScenario struct {
	cfg        ScenarioConfig
	m          *eec.SkipListMap
	expected   int64
	violations atomic.Uint64
}

func newBankScenario(cfg ScenarioConfig) *bankScenario {
	return &bankScenario{
		cfg:      cfg,
		m:        eec.NewSkipListMap(),
		expected: int64(cfg.Accounts * cfg.InitialBalance),
	}
}

func (s *bankScenario) Name() string       { return "bank" }
func (s *bankScenario) Structures() string { return "skiplistmap" }
func (s *bankScenario) Violations() uint64 { return s.violations.Load() }

func (s *bankScenario) Fill(th *stm.Thread) {
	for i := 0; i < s.cfg.Accounts; i++ {
		s.m.Put(th, i, int64(s.cfg.InitialBalance))
	}
}

type bankWorker struct {
	s        *bankScenario
	th       *stm.Thread
	rng      *rand.Rand
	accounts Sampler
}

func (s *bankScenario) NewWorker(th *stm.Thread, idx int) Worker {
	return &bankWorker{s: s, th: th, rng: scenarioRNG(s.cfg, idx), accounts: scenarioSampler(s.cfg, s.cfg.Accounts)}
}

func (w *bankWorker) Step() {
	s := w.s
	if w.rng.IntN(100) < s.cfg.AuditPct {
		if sum := s.m.SumInt(w.th); w.th.Err() == nil && sum != s.expected {
			s.violations.Add(1)
		}
		return
	}
	// The distribution shapes the *source* account (skew means hot
	// senders, the contended side of a transfer); the destination stays
	// uniform over the other accounts.
	from := w.accounts.Next(w.rng)
	to := w.rng.IntN(s.cfg.Accounts - 1)
	if to >= from {
		to++
	}
	amount := int64(1 + w.rng.IntN(s.cfg.MaxTransfer))
	if s.cfg.Unsound {
		// Withdraw and deposit in separate transactions: the amount is in
		// neither account between them, and two withdrawals racing on one
		// account lose an update for good.
		if bal, ok := s.m.Get(w.th, from); ok && bal >= amount {
			s.m.Put(w.th, from, bal-amount)
			toBal, _ := s.m.Get(w.th, to)
			s.m.Put(w.th, to, toBal+amount)
		}
		return
	}
	s.m.Transfer(w.th, from, to, amount)
}

func (s *bankScenario) Check(th *stm.Thread) {
	if s.m.SumInt(th) != s.expected {
		s.violations.Add(1)
	}
}

// -------------------------------------------------------------- pipeline --

// pipelineScenario runs a two-stage pipeline over eec.Queues: producers
// enqueue an increasing sequence into q1 (counting in the same
// transaction), stages move items q1→q2 with Queue.MoveTo, and consumers
// dequeue from q2 (counting likewise). Every worker plays all three roles.
// Invariants: produced = consumed + in-flight at every atomic snapshot
// (item conservation), and — because production order is total and both
// queues are FIFO — each consumer observes strictly increasing values. The
// unsound stage (dequeue and enqueue in separate transactions) violates
// both: items sit in neither queue between the two transactions, and two
// unsound stages can reorder items.
type pipelineScenario struct {
	cfg        ScenarioConfig
	q1, q2     *eec.Queue
	produced   mvar.IntVar
	_          [64]byte // producers write produced, consumers write consumed: never one cache line
	consumed   mvar.IntVar
	violations atomic.Uint64
}

func newPipelineScenario(cfg ScenarioConfig) *pipelineScenario {
	return &pipelineScenario{cfg: cfg, q1: eec.NewQueue(), q2: eec.NewQueue()}
}

func (s *pipelineScenario) Name() string       { return "pipeline" }
func (s *pipelineScenario) Structures() string { return "queue+queue" }
func (s *pipelineScenario) Violations() uint64 { return s.violations.Load() }

func (s *pipelineScenario) Fill(*stm.Thread) {}

type pipelineWorker struct {
	s         *pipelineScenario
	th        *stm.Thread
	rng       *rand.Rand
	last      int // last value this worker consumed (FIFO monotonicity)
	got       int
	gotOK     bool
	auditBad  bool
	produceFn func(stm.Tx) error
	consumeFn func(stm.Tx) error
	auditFn   func(stm.Tx) error
}

func (s *pipelineScenario) NewWorker(th *stm.Thread, idx int) Worker {
	w := &pipelineWorker{s: s, th: th, rng: scenarioRNG(s.cfg, idx)}
	w.produceFn = func(tx stm.Tx) error {
		n := stm.ReadInt(tx, &s.produced)
		s.q1.Enqueue(w.th, int(n)+1)
		stm.WriteInt(tx, &s.produced, n+1)
		return nil
	}
	w.consumeFn = func(tx stm.Tx) error {
		w.got, w.gotOK = 0, false
		v, ok := s.q2.Dequeue(w.th)
		if !ok {
			return nil
		}
		stm.WriteInt(tx, &s.consumed, stm.ReadInt(tx, &s.consumed)+1)
		w.got, w.gotOK = v.(int), true
		return nil
	}
	w.auditFn = func(tx stm.Tx) error {
		p := stm.ReadInt(tx, &s.produced)
		c := stm.ReadInt(tx, &s.consumed)
		inFlight := s.q1.Len(w.th) + s.q2.Len(w.th)
		w.auditBad = p != c+int64(inFlight)
		return nil
	}
	return w
}

func (w *pipelineWorker) Step() {
	s := w.s
	if w.rng.IntN(100) < s.cfg.AuditPct {
		if err := w.th.Atomic(stm.Regular, w.auditFn); err == nil && w.auditBad {
			s.violations.Add(1)
		}
		return
	}
	// Produce and consume run Regular even on elastic engines: they
	// read-modify-write the sequence counter directly in the outer
	// transaction, and an elastic outer region only protects the read
	// immediately preceding its first write — the counter read could
	// fall out of the protected set and lose an update. (The composed
	// e.e.c operations are different: all their reads happen in nested
	// children and stay protected through outheritance.)
	switch w.rng.IntN(3) {
	case 0: // produce
		_ = w.th.Atomic(stm.Regular, w.produceFn)
	case 1: // stage
		if s.cfg.Unsound {
			// Dequeue and enqueue in separate transactions: the item is
			// in neither queue between them, and two unsound stages can
			// swap items on the way over.
			if v, ok := s.q1.Dequeue(w.th); ok {
				s.q2.Enqueue(w.th, v)
			}
			return
		}
		s.q1.MoveTo(w.th, s.q2)
	default: // consume
		if err := w.th.Atomic(stm.Regular, w.consumeFn); err == nil && w.gotOK {
			if w.got <= w.last {
				s.violations.Add(1)
			}
			w.last = w.got
		}
	}
}

func (s *pipelineScenario) Check(th *stm.Thread) {
	produced := 0
	consumed := 0
	inFlight := 0
	_ = th.Atomic(stm.Regular, func(tx stm.Tx) error {
		produced = int(stm.ReadInt(tx, &s.produced))
		consumed = int(stm.ReadInt(tx, &s.consumed))
		inFlight = s.q1.Len(th) + s.q2.Len(th)
		return nil
	})
	if produced != consumed+inFlight {
		s.violations.Add(1)
	}
}
