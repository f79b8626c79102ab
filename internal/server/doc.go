// Package server is the network front of the sharded transactional
// store: a TCP server speaking the length-prefixed binary protocol of
// internal/wire, plus the matching Client.
//
// # Request lifecycle
//
// One goroutine per connection owns everything that connection needs —
// an stm.Thread on the server's engine (with the configured contention
// policy installed), a store.Frame with pre-bound composed-operation
// closures, a wire.Request/Response pair, and reusable read/encode
// buffers — so a request in the steady state is: read frame (into the
// connection's buffer), decode (into the connection's request), run one
// relaxed transaction through the frame, encode (into the connection's
// buffer), write. No per-request goroutines, no per-request allocations
// beyond what the store's values require. Requests, not goroutines, are
// the unit of work: concurrency equals the number of connections, and a
// connection's requests execute in order (which is what makes pipelining
// sound — responses are returned in request order).
//
// Pipelined bursts are flushed once: the writer only flushes when the
// read buffer has no further complete request waiting.
//
// # Errors
//
// Malformed request bodies get a StatusErr response with the typed
// wire.ProtocolError code and the connection continues (framing is
// intact). An oversized announced frame length poisons the stream — the
// body was never read — so the server responds ErrFrameTooLarge and
// closes; a stream ending mid-frame is answered with ErrTruncated on the
// way down. Keys colliding with the store's sentinels are ErrKeyRange.
// Config.MaxRetries bounds every transaction of every request, whatever
// the opcode: a request that exhausts it is answered ErrRetryExhausted (a
// sound store is unchanged; an unsound split keeps the pieces that ran).
//
// # Stats
//
// OpStats merges telemetry across every connection the server has seen:
// per-opcode request counts and server-side latency histograms
// (stats.Histogram, merged associatively) and the engines' commit/abort
// counters with the per-cause abort breakdown. Connections publish their
// counters under a per-connection mutex after each request, so a stats
// scrape never races the request path (pinned by the -race CI job).
//
// # Shutdown
//
// Shutdown stops accepting, then interrupts every connection's next
// blocking read via a read deadline; handlers finish the requests
// already buffered (pipelined work is completed, responses flushed)
// and close. Idle connections close immediately. If the context expires
// first, remaining connections are closed hard and their threads
// cancelled: a handler spinning in a transaction retry loop gives up at
// its next abort, answers ErrShuttingDown and ends its connection.
//
//compose:hotpath
package server
