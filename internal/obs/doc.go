// Package obs is the serving system's observability plane: an admin
// HTTP server (off by default; compose-server -admin-addr) that turns
// the existing allocation-free telemetry into operator-facing surfaces
// without touching the request path's allocation budgets.
//
// Endpoints:
//
//	/metrics       Prometheus text exposition of the full stats payload:
//	               per-opcode request counts and latency histograms
//	               (log-bucketed stats.Histogram re-bucketed exactly onto
//	               power-of-two le boundaries), abort counters by cause
//	               and engine, WAL and hot-key counters, the
//	               per-shard telemetry block, and Go runtime gauges.
//	/stats         The binary wire.StatsPayload over HTTP, so tooling can
//	               scrape without speaking the TCP wire protocol.
//	/debug/aborts  The abort flight recorder's ring contents as JSON —
//	               the last sampled abort events {opcode, cause, shard,
//	               attempts, latency}, drained on read.
//	/debug/pprof/  net/http/pprof profiles (explicitly wired; the admin
//	               server never touches http.DefaultServeMux).
//
// Consistency semantics: every /metrics and /stats response is one call
// to the server's merged-stats snapshot, the same merge the OpStats wire
// opcode serves — scraping over HTTP and over the wire protocol observe
// the same monotone counters, so mixing the two (or diffing consecutive
// scrapes of either) is sound. A scrape is atomic per connection, not
// across connections: the merge locks each connection's stats in turn,
// so two counters from different connections may be skewed by the
// requests that landed mid-merge. Series derived from one counter are
// internally exact (histogram bucket/sum/count triples come from one
// locked snapshot per connection).
package obs
