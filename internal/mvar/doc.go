// Package mvar provides the transactional memory substrate shared by every
// STM engine in this repository: versioned-lock memory words (Word), typed
// transactional variables layered on top of them (Var[T], Flag, IntVar,
// AnyVar), the global version clock, and the lock-word encoding helpers.
//
// A word plays the role of one "object field" in the paper's terminology:
// all engines detect conflicts at Word granularity, mirroring the paper's
// setup where "all STMs protect memory locations at the granularity level
// of object fields" (§VII-B). A word is also the concrete carrier of a
// protection element: acquiring the protection element of a location maps
// to either write-locking the word or recording its version in a read set
// that will be revalidated.
//
// # Memory layout
//
// A Word is its three cells and nothing else: 24 bytes, no padding. Words
// are overwhelmingly the links and values of collection nodes, which
// a traversal reads hop after hop and rarely writes, so the cost that
// matters is how many cache lines a hop touches — a word sits on the same
// line as the key and the neighbouring fields of its node, and two list
// nodes fit in one line. Isolation from false sharing is the job of the
// few structs that really have two words written back-to-back by different
// goroutines (eec.Queue's head and tail, a scenario's pair of global
// counters, the Clock below): they put a plain `_ [64]byte` between the two
// and say which writers it separates. internal/mvar and internal/eec pin
// both facts — the sizes and the separations — in their TestLayout* tests.
//
// # Lock-word encoding and budgets
//
// This is the single authoritative description of the lock-word layout;
// every engine shares it through Locked/Version/Owner/VersionWord.
//
//	bit 0      write-lock flag
//	bits 1..63 commit version while unlocked, owner thread slot while locked
//
// Both the version and the owner slot therefore have a 63-bit budget
// (PayloadBits):
//
//   - Versions are drawn from a single global Clock per engine, so they
//     are totally ordered across all words. At one commit per nanosecond a
//     63-bit version space lasts ~292 years; overflow is not a practical
//     concern and is not checked on the commit path.
//   - Owner slots come from thread identifiers (stm.Thread.ID, or the
//     per-engine descriptor slots of SwissTM). Any non-negative Go int
//     round-trips losslessly through the encoding (int is at most 63 value
//     bits); lockWord rejects negative owners, which are the only values
//     that would alias a version after the shift.
//
// # Payload cells and the consistency protocol
//
// A Word carries two raw payload cells: a GC-visible pointer cell and a
// scalar cell. A typed variable owns exactly one interpretation of those
// cells and is the only code that encodes or decodes them; engines shuttle
// payloads around as opaque Raw pairs, so the read/write-set entries of
// every engine are flat, allocation-free structs rather than boxed
// interfaces. The typed variables are:
//
//	Var[T]  a *T in the pointer cell    allocation-free
//	        (+ a mark bit in the scalar cell, the link encoding)
//	Flag    a bool in the scalar cell   allocation-free
//	IntVar  an int64 in the scalar cell allocation-free
//	AnyVar  any value, boxed into the pointer cell (one allocation per
//	        write) — the compatibility variable for arbitrary payloads
//
// A link is a Var[T] whose scalar cell also carries a mark bit (LinkRaw,
// LinkValue): the transactional form of a Harris marked pointer. The
// internal/eec skip lists mark every link of a departing node's tower in
// the writes that already unlink it, so their nodes carry no separate mark
// word. The plain pointer decoders (RefValue, stm.ReadPtr, Var.Load)
// ignore the bit, and RefRaw writes an unmarked link.
//
// AnyVar is kept for the surfaces whose payloads really are arbitrary:
// the public facade's Var, the engine conformance suite (internal/stmtest)
// and eec.Queue's items. Nothing on the serving path uses it — the store's
// int64 values live in the IntVar of each skip-list map node.
//
// Writers mutate the cells only while holding the write lock, and readers
// use the seqlock-style ReadConsistent (sample meta, load cells, re-sample
// meta), so a consistent read never observes a torn (pointer, bits) pair
// even though the two cells are loaded separately.
//
//compose:hotpath
package mvar
