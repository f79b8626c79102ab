// Package store is the sharded transactional keyspace behind the serving
// layer: a power-of-two array of engine-backed eec.SkipListMap shards
// under one int64 key space, with single-shard elementary operations
// (Get, Put, Remove) and composed multi-key operations (MGet, MPut,
// CompareAndMove, Add, MAdd) that each execute as one relaxed
// transaction, whatever mix of shards they touch.
//
// Values are int64 end to end: the wire carries them, the log records
// them, and the shard maps hold them directly in each node's value word
// (an mvar.IntVar), so no store operation boxes a value — an overwrite,
// a delta or a replayed record allocates nothing, and a read stops at the
// node it found.
//
// The store itself is engine-agnostic, like every e.e.c structure: shards
// are built from mvar words, and the engine is carried by the stm.Thread
// driving an operation — one store instance can serve OE-STM and the
// classic baselines alike (the server binds one engine per store by
// giving every connection a thread on the same TM).
//
// Operations run through a per-connection Frame whose transaction
// closures are bound once at construction and parameterised through
// fields, the same discipline as the e.e.c operation frames: the
// steady-state request path starts no per-call closures and allocates no
// per-transaction frames (see the AllocsPerRun conformance tests).
//
// The composed mutators (MPut, CompareAndMove) follow the paper's Fig. 5
// pattern — elementary operations invoked inside an enclosing
// transaction, atomic through outheritance (or flat nesting on the
// classic engines). MGet is an observation, not a mutation, and uses the
// audit pattern of the composed-scenario suite instead: one Regular
// transaction reading every shard directly (SkipListMap.GetTx), because
// a read-only elastic child outherits only its final read and a
// composition of such children would not validate as one snapshot.
//
// Every mutating operation — elementary or composed, on a plain key or a
// promoted counter (hot.go), logged or not, issued by a Frame or committed
// by the batch Applier — walks one commit pipeline (commit.go): resolve
// hot counters, take their abstract locks, take the shards' commit locks
// in ascending order, run the body, append the effect list to the one
// write-ahead log as one record, unlock, wait for group commit. Because a
// composed mutation is one record whichever shards it spans, a restart
// replays the log's longest valid prefix and the recovered keyspace is
// the state after some prefix of the commits — never half a composition.
//
// A Frame's thread carries the one retry bound (stm.Thread.MaxRetries,
// 0 = unbounded): it covers every transaction of every operation,
// elementary or composed. An operation that gives up — bound exhausted or
// thread cancelled — reports it through one sticky error, Frame.Err,
// until ClearErr.
//
// Unsound mode splits every composed operation into separate top-level
// transactions — the deliberately broken baseline the cross-shard
// atomicity checkers are required to catch, extending the PR 2 pattern
// to the store layer.
//
//compose:hotpath
package store
