// bank: composed transfers with a concurrent invariant audit. Accounts
// live in a transactional SkipListMap; Transfer is a Get/Put composition
// (atomic through outheritance), and auditors repeatedly sum every
// balance in one whole-map transaction. Money is conserved at every
// audit — the property the harness's `bank` scenario measures across all
// engines (go run ./cmd/compose-bench -scenario bank).
package main

import (
	"fmt"
	"math/rand/v2"
	"sync"
	"sync/atomic"

	"oestm"
)

const (
	accounts       = 16
	initialBalance = 1000
	tellers        = 6
	auditors       = 2
	transfers      = 3000
)

func main() {
	tm := oestm.NewOESTM()
	bank := oestm.NewSkipListMap()

	init := oestm.NewThread(tm)
	for i := 0; i < accounts; i++ {
		bank.Put(init, i, initialBalance)
	}
	const expected = accounts * initialBalance

	var done atomic.Bool
	var badAudits atomic.Uint64
	var audits atomic.Uint64
	var auditWg, tellerWg sync.WaitGroup

	for a := 0; a < auditors; a++ {
		auditWg.Add(1)
		go func() {
			defer auditWg.Done()
			th := oestm.NewThread(tm)
			for !done.Load() {
				if bank.SumInt(th) != expected {
					badAudits.Add(1)
				}
				audits.Add(1)
			}
		}()
	}

	for g := 0; g < tellers; g++ {
		tellerWg.Add(1)
		go func(seed uint64) {
			defer tellerWg.Done()
			th := oestm.NewThread(tm)
			rng := rand.New(rand.NewPCG(seed, 42))
			for i := 0; i < transfers; i++ {
				from := rng.IntN(accounts)
				to := rng.IntN(accounts - 1)
				if to >= from {
					to++
				}
				bank.Transfer(th, from, to, 1+rng.Int64N(100))
			}
		}(uint64(g + 1))
	}
	tellerWg.Wait()
	done.Store(true)
	auditWg.Wait()

	total := bank.SumInt(init)
	fmt.Printf("%d tellers x %d transfers over %d accounts, %d concurrent audits\n",
		tellers, transfers, accounts, audits.Load())
	fmt.Printf("inconsistent audits: %d, final total: %d (expected %d)\n",
		badAudits.Load(), total, expected)
	if badAudits.Load() == 0 && total == expected {
		fmt.Println("OK: every transfer was atomic — money conserved at every audit")
	} else {
		fmt.Println("FAILURE: conservation violated")
	}
}
