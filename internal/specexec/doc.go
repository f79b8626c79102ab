// Package specexec is a batch-speculative execution engine: a
// Block-STM-style optimistic scheduler that runs a batch of
// transactions in parallel across a bounded worker pool and commits
// them in batch order, so execution parallelism is decoupled from the
// number of submitters. The server no longer runs it (its batch mode
// lost to the connection-thread model on every serving workload); the
// benchmark ladder's specexec rungs measure it through store.Applier.
//
// # Model
//
// A batch is an ordered slice of Txns. The semantics the scheduler
// guarantees is serial equivalence IN BATCH ORDER: the observable
// reads, writes and committed end state are exactly those of running
// the batch's transactions one after another, index 0 first. The
// parallelism is speculation, never reordering.
//
// Each transaction executes optimistically against a View that layers
// three sources, nearest first: its own write set, the multi-version
// map (the highest write by a LOWER batch index), and the committed
// base state (Config.NewBase). Every read records a descriptor — the
// key and the exact version observed: (txn, incarnation) for a
// multi-version hit, the Base sentinel for a base read. Every write
// goes to the transaction's write set and is published to the
// multi-version map when the attempt completes.
//
// # Scheduler states
//
// A transaction slot moves through attempts, each tagged with an
// incarnation number:
//
//	executing  -> published  (attempt completed; write set visible in the mv map)
//	executing  -> dep-missed (a read hit an ESTIMATE marker; attempt void)
//	published  -> validated  (every read descriptor still observes the same version)
//	published  -> failed     (a lower transaction's republish changed an observed version)
//	failed     -> executing  (incarnation+1, old writes left as ESTIMATE markers)
//
// The scheduler runs rounds: a parallel execute phase over the pending
// set, then a parallel validate phase over the WHOLE batch. The
// validation rule: transaction i is valid iff re-reading each of its
// read descriptors at index i yields the identical version — same
// (txn, incarnation) for map hits, still-a-base-read for base reads,
// and never an ESTIMATE. Failed transactions mark their published
// writes as ESTIMATE (so higher readers dependency-miss instead of
// consuming doomed values), bump their incarnation, and join the next
// round's execute set. The loop terminates because the lowest-indexed
// failed transaction always finalizes in its next round: every version
// below it is settled, so its re-execution can neither dependency-miss
// nor fail validation again — at most n rounds for a batch of n.
//
// # Commit
//
// After a round validates cleanly, write sets are staged into the
// Committer in batch index order and applied per independent job
// (the store groups by shard — disjoint keyspaces, so jobs run on the
// worker pool in parallel while each shard's commit order remains
// batch order, which keeps WAL log order equal to commit order; see
// internal/store's Applier). Done callbacks fire in batch order only
// after Committer.Finish returned, i.e. after group commit made the
// batch durable — acknowledgment ordering is unchanged from the
// connection-serial path.
//
// The package is deliberately storage-agnostic: base reads, commit
// application and completion routing are all injected, so the unit
// tests drive it against a plain map and the benchmark ladder wires it
// to the sharded store and the WAL through store.Applier.
//
//compose:hotpath
package specexec
