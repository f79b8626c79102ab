// counterfanin.go is the serving-layer conservation checker for the
// commutative hot-key path: many connections fan deltas into a small set
// of counters while concurrent snapshot audits assert that money never
// appears or disappears. Two invariants are checked:
//
//   - transfer conservation: half the counters receive only zero-sum
//     cross-shard MAdd transfers (+d on one key, -d on another), so every
//     atomic MGet snapshot of them must sum to the initial total — during
//     the run (the audits) and at the end. An -unsound server tears both
//     the transfers and the snapshots, so audits MUST observe broken sums
//     there; every composing engine must show zero violations.
//   - fan-in exactness: the other counters receive only single-key adds
//     with client-tracked acked deltas; after quiescing, each sum must
//     equal exactly what was acknowledged — lost updates (the unsound
//     read-then-write tear) show up as a shortfall.
//
// Violations are counted over the whole run (not just the measured
// window): a conservation break anywhere is a correctness bug, and the
// unsound ablation must not be able to hide one in the warmup.
package harness

import (
	"fmt"
	"math/rand/v2"
	"sync/atomic"
	"time"

	"oestm/internal/server"
)

// CounterFaninScenario is the Scenario label of counter-fanin results.
const CounterFaninScenario = "counter-fanin"

// counterFaninInitial is each transfer counter's starting balance.
const counterFaninInitial = 1 << 20

// RunCounterFanin drives the counter-fanin checker against a running
// compose-server, reusing LoadConfig's connection/window/distribution
// shape. cfg.Keys is the counter count, clamped to [4, 64] — fan-in
// wants few, hot counters — and split in half: transfer keys [0, n/2),
// fan-in keys [n/2, n). The returned Result carries the violation count
// beside the usual throughput/abort/latency axes.
func RunCounterFanin(cfg LoadConfig) (Result, error) {
	cfg = cfg.normalize()
	if err := cfg.Dist.Validate(); err != nil {
		return Result{}, err
	}
	if cfg.Conns < 1 || cfg.Duration < 0 || cfg.Warmup < 0 {
		return Result{}, fmt.Errorf("harness: invalid counter-fanin shape: conns=%d duration=%v warmup=%v",
			cfg.Conns, cfg.Duration, cfg.Warmup)
	}
	nKeys := cfg.Keys
	if nKeys < 4 {
		nKeys = 4
	}
	if nKeys > 64 {
		nKeys = 64
	}
	transfer := make([]int64, nKeys/2)
	for i := range transfer {
		transfer[i] = int64(i)
	}
	fanin := make([]int64, nKeys-len(transfer))
	for i := range fanin {
		fanin[i] = int64(len(transfer) + i)
	}
	wantTransfer := int64(len(transfer)) * counterFaninInitial

	var (
		violations atomic.Uint64
		acked      atomic.Int64 // fan-in deltas acknowledged across workers
	)
	// conserved reports whether one snapshot of keys sums to want.
	conserved := func(vals []int64, want int64) bool {
		var sum int64
		for _, v := range vals {
			sum += v
		}
		return sum == want
	}
	return runWireWindow(cfg, wireScenario{
		name: CounterFaninScenario,
		// Seed the transfer counters (quiescent, so the absolute puts are
		// safe even against an unsound server) and clear any fan-in residue.
		setup: func(ctl *server.Client) error {
			initVals := make([]int64, len(transfer))
			for i := range initVals {
				initVals[i] = counterFaninInitial
			}
			if err := ctl.MPut(transfer, initVals); err != nil {
				return fmt.Errorf("harness: seed transfer counters: %w", err)
			}
			for _, k := range fanin {
				if _, _, err := ctl.Remove(k); err != nil {
					return fmt.Errorf("harness: clear fan-in counter %d: %w", k, err)
				}
			}
			return nil
		},
		newWorker: func(idx int) (func() (int, error), func(), error) {
			cl, err := server.DialTimeout(cfg.Addr, 5*time.Second)
			if err != nil {
				return nil, nil, err
			}
			rng := rand.New(rand.NewPCG(cfg.Seed, uint64(idx)+1))
			madd := [2]int64{}
			deltas := [2]int64{}
			step := func() (int, error) {
				d := rng.Int64N(100) + 1
				switch r := rng.IntN(100); {
				case r < 40: // fan-in add, acked delta tracked exactly
					k := fanin[rng.IntN(len(fanin))]
					if err := cl.Add(k, d); err == nil {
						acked.Add(d)
					} else if err := ignoreExhausted(err); err != nil {
						return 0, fmt.Errorf("add: %w", err)
					}
				case r < 70: // zero-sum transfer between two counters
					a := rng.IntN(len(transfer))
					b := (a + 1 + rng.IntN(len(transfer)-1)) % len(transfer)
					madd[0], madd[1] = transfer[a], transfer[b]
					deltas[0], deltas[1] = d, -d
					if err := ignoreExhausted(cl.MAdd(madd[:], deltas[:])); err != nil {
						return 0, fmt.Errorf("madd: %w", err)
					}
				default: // audit: one atomic snapshot must conserve the total
					vals, _, err := cl.MGet(transfer)
					if err := ignoreExhausted(err); err != nil {
						return 0, fmt.Errorf("audit mget: %w", err)
					}
					if err == nil && !conserved(vals, wantTransfer) {
						violations.Add(1)
					}
				}
				return 1, nil
			}
			return step, func() { cl.Close() }, nil
		},
		// End-state checks, quiesced: conservation again, and fan-in
		// exactness against the acknowledged deltas.
		check: func(ctl *server.Client) (uint64, error) {
			vals, _, err := ctl.MGet(transfer)
			if err != nil {
				return 0, fmt.Errorf("harness: final transfer check: %w", err)
			}
			if !conserved(vals, wantTransfer) {
				violations.Add(1)
			}
			if vals, _, err = ctl.MGet(fanin); err != nil {
				return 0, fmt.Errorf("harness: final fan-in check: %w", err)
			}
			if !conserved(vals, acked.Load()) {
				violations.Add(1)
			}
			return violations.Load(), nil
		},
	})
}
