// Package server is the network front of the sharded transactional
// store: a TCP server speaking the length-prefixed binary protocol of
// internal/wire, plus the matching Client.
//
// # Request lifecycle
//
// One goroutine per connection owns everything that connection needs —
// an stm.Thread on the server's engine (with the configured contention
// policy installed), a store.Frame with pre-bound composed-operation
// closures, a pool of request/response records, and reusable read/encode
// buffers. It serves in turns: read a burst (one blocking frame, then
// every complete frame already buffered) and decode it into the pool;
// execute it in order on the frame, each request one relaxed
// transaction on the connection's own thread; wait once for the
// write-ahead log to make the turn's mutations durable
// (store.Frame.WALErr); encode every response; write them with one
// write(2). No per-request goroutines, no per-request allocations beyond
// what the store's values require. Requests, not goroutines, are the unit
// of work: concurrency equals the number of connections, and a
// connection's requests execute in order (which is what makes pipelining
// sound — responses are returned in request order).
//
// A turn ends only when the read buffer holds no further complete
// request, so a pipelined burst costs one group commit and one response
// write. A buffered partial frame does not extend the turn: its peer may
// be waiting for these responses before sending the rest.
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
// counters under a per-connection mutex once per turn, so a stats scrape
// never races the request path (pinned by the -race CI job).
//
// # Shutdown
//
// Shutdown stops accepting, then interrupts every connection's next
// blocking read via a read deadline; handlers finish the requests
// already buffered (pipelined work is completed, responses written)
// and close. Idle connections close immediately. If the context expires
// first, remaining connections are closed hard and their threads
// cancelled: a handler spinning in a transaction retry loop gives up at
// its next abort and answers ErrShuttingDown; the requests of its burst
// before it are still made durable and answered, the ones after it never
// start, and the connection ends.
//
//compose:hotpath
package server
