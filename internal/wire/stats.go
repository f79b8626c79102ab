package wire

import (
	"encoding/binary"
	"fmt"

	"oestm/internal/stats"
	"oestm/internal/stm"
)

// statsVersion guards the stats payload layout; bump it when the layout
// changes so stale clients fail loudly instead of misparsing.
// Version history: 1 = initial; 2 = WAL fields (enabled flag and the
// wal_* counters); 3 = execution-model fields (exec name and the spec_*
// speculation counters); 4 = commutative hot-key fields (adds applied,
// boosted executions, hot-key promotions/demotions); 5 = an exact sum
// inside every histogram and the trailing per-shard telemetry block
// (ShardStats).
const statsVersion = 5

// maxShardStats bounds the per-shard block a decoder will allocate for —
// far above any real shard count, low enough that a hostile length
// prefix cannot balloon memory.
const maxShardStats = 1 << 16

// OpTelemetry is one opcode's server-side measurements: how many requests
// ran and the latency histogram of their service time — measured from
// "request frame in hand" to "response handed to the socket", so it
// includes decode, the transaction, encode, the buffered write and any
// flush backpressure from a slow reader; network transit and waiting for
// the request to arrive are excluded.
type OpTelemetry struct {
	Count uint64
	Hist  stats.Histogram
}

// StatsPayload is the server's merged telemetry, returned by OpStats: the
// store's identity (engine, contention policy, shard count), per-opcode
// counts and latency histograms, and the transaction counters — commits,
// aborts, and the per-cause abort breakdown — summed over every
// connection the server has served (live ones included). Histograms merge
// associatively, so scraping twice and diffing is sound.
type StatsPayload struct {
	Engine        string
	CM            string
	Shards        int
	Conns         int // connections currently open
	Ops           [NumOps]OpTelemetry
	Commits       uint64
	Aborts        uint64
	AbortsByCause [stm.NumCauses]uint64

	// WAL durability telemetry: whether the server runs a write-ahead
	// log, and its cumulative append/flush/byte counters (all zero when
	// disabled). The harness diffs the counters across the measured
	// window into the wal_* CSV columns.
	WALEnabled bool
	WALAppends uint64
	WALSyncs   uint64
	WALBytes   uint64

	// Execution-model telemetry: the server's execution mode ("conn" or
	// "batch") and the speculative executor's cumulative counters (all
	// zero in conn mode) — batches committed, Speculate attempts,
	// attempts beyond a transaction's first, and completed attempts
	// whose read set failed validation. The harness diffs them across
	// the measured window into the spec_* CSV columns.
	Exec                string
	SpecBatches         uint64
	SpecExecs           uint64
	SpecReexecs         uint64
	SpecValidationFails uint64

	// Commutative hot-key telemetry: total deltas applied (Add ops plus
	// MAdd entries), how many of those ran on the boosted commutative
	// path (per-key abstract locks, no STM transaction), and how many
	// keys the adaptive tracker promoted to / demoted from that path.
	// The harness diffs them into the adds/boosted_ops/hot_promotions
	// CSV columns.
	Adds          uint64
	BoostedOps    uint64
	HotPromotions uint64
	HotDemotions  uint64

	// ShardStats is the per-shard telemetry block (one entry per store
	// shard, indexed by shard; the trailing field of statsVersion 5). It
	// splits the merged counters by shard so an operator can see skew —
	// a hot shard's ops/aborts dominating — that the aggregates hide.
	ShardStats []ShardTelemetry
}

// AddSTM accumulates one thread's (or one aggregate's) transaction
// counters into the payload — the single place an stm.Stats field is
// mapped onto the wire layout, so every merge site stays in step.
func (p *StatsPayload) AddSTM(s stm.Stats) {
	p.Commits += s.Commits
	p.Aborts += s.Aborts
	for i := range s.AbortsByCause {
		p.AbortsByCause[i] += s.AbortsByCause[i]
	}
}

// ShardTelemetry is one shard's counters inside StatsPayload.ShardStats.
// Ops counts key-operations routed to the shard (each key of a composed
// operation counts once; batch mode counts the committed write set).
// Aborts counts aborted transaction attempts attributed to the shard —
// a composed operation's aborts land on its first key's shard, so the
// per-shard sum matches the merged abort counter's growth. HotKeys is a
// gauge: counters currently promoted to the commutative hot-key path.
// WALBytes is the shard's slice of the wal_bytes aggregate.
type ShardTelemetry struct {
	Ops      uint64
	Aborts   uint64
	HotKeys  uint64
	WALBytes uint64
}

// AppendStats appends the encoded payload to dst.
func AppendStats(dst []byte, p *StatsPayload) []byte {
	dst = append(dst, statsVersion)
	dst = appendString(dst, p.Engine)
	dst = appendString(dst, p.CM)
	dst = binary.AppendUvarint(dst, uint64(p.Shards))
	dst = binary.AppendUvarint(dst, uint64(p.Conns))
	for i := range p.Ops {
		dst = binary.AppendUvarint(dst, p.Ops[i].Count)
		dst = p.Ops[i].Hist.AppendBinary(dst)
	}
	dst = binary.AppendUvarint(dst, p.Commits)
	dst = binary.AppendUvarint(dst, p.Aborts)
	dst = binary.AppendUvarint(dst, uint64(stm.NumCauses))
	for _, n := range p.AbortsByCause {
		dst = binary.AppendUvarint(dst, n)
	}
	var walFlag byte
	if p.WALEnabled {
		walFlag = 1
	}
	dst = append(dst, walFlag)
	dst = binary.AppendUvarint(dst, p.WALAppends)
	dst = binary.AppendUvarint(dst, p.WALSyncs)
	dst = binary.AppendUvarint(dst, p.WALBytes)
	dst = appendString(dst, p.Exec)
	dst = binary.AppendUvarint(dst, p.SpecBatches)
	dst = binary.AppendUvarint(dst, p.SpecExecs)
	dst = binary.AppendUvarint(dst, p.SpecReexecs)
	dst = binary.AppendUvarint(dst, p.SpecValidationFails)
	dst = binary.AppendUvarint(dst, p.Adds)
	dst = binary.AppendUvarint(dst, p.BoostedOps)
	dst = binary.AppendUvarint(dst, p.HotPromotions)
	dst = binary.AppendUvarint(dst, p.HotDemotions)
	dst = binary.AppendUvarint(dst, uint64(len(p.ShardStats)))
	for i := range p.ShardStats {
		st := &p.ShardStats[i]
		dst = binary.AppendUvarint(dst, st.Ops)
		dst = binary.AppendUvarint(dst, st.Aborts)
		dst = binary.AppendUvarint(dst, st.HotKeys)
		dst = binary.AppendUvarint(dst, st.WALBytes)
	}
	return dst
}

// Decode parses an encoded payload into p. Every failure is a
// *ProtocolError (ErrBadBody).
func (p *StatsPayload) Decode(body []byte) error {
	*p = StatsPayload{}
	if len(body) == 0 || body[0] != statsVersion {
		return perr(ErrBadBody, "stats payload version mismatch")
	}
	b := body[1:]
	var err error
	if p.Engine, b, err = readString(b); err != nil {
		return err
	}
	if p.CM, b, err = readString(b); err != nil {
		return err
	}
	var u uint64
	if u, b, err = readUvarint(b); err != nil {
		return err
	}
	p.Shards = int(u)
	if u, b, err = readUvarint(b); err != nil {
		return err
	}
	p.Conns = int(u)
	for i := range p.Ops {
		if p.Ops[i].Count, b, err = readUvarint(b); err != nil {
			return err
		}
		if b, err = p.Ops[i].Hist.DecodeBinary(b); err != nil {
			return perr(ErrBadBody, "stats histogram: "+err.Error())
		}
	}
	if p.Commits, b, err = readUvarint(b); err != nil {
		return err
	}
	if p.Aborts, b, err = readUvarint(b); err != nil {
		return err
	}
	if u, b, err = readUvarint(b); err != nil {
		return err
	}
	if int(u) != stm.NumCauses {
		return perr(ErrBadBody, fmt.Sprintf("stats payload has %d abort causes, want %d", u, stm.NumCauses))
	}
	for i := range p.AbortsByCause {
		if p.AbortsByCause[i], b, err = readUvarint(b); err != nil {
			return err
		}
	}
	if len(b) == 0 {
		return perr(ErrBadBody, "stats payload missing wal flag")
	}
	switch b[0] {
	case 0:
	case 1:
		p.WALEnabled = true
	default:
		return perr(ErrBadBody, "stats payload bad wal flag")
	}
	b = b[1:]
	if p.WALAppends, b, err = readUvarint(b); err != nil {
		return err
	}
	if p.WALSyncs, b, err = readUvarint(b); err != nil {
		return err
	}
	if p.WALBytes, b, err = readUvarint(b); err != nil {
		return err
	}
	if p.Exec, b, err = readString(b); err != nil {
		return err
	}
	if p.SpecBatches, b, err = readUvarint(b); err != nil {
		return err
	}
	if p.SpecExecs, b, err = readUvarint(b); err != nil {
		return err
	}
	if p.SpecReexecs, b, err = readUvarint(b); err != nil {
		return err
	}
	if p.SpecValidationFails, b, err = readUvarint(b); err != nil {
		return err
	}
	if p.Adds, b, err = readUvarint(b); err != nil {
		return err
	}
	if p.BoostedOps, b, err = readUvarint(b); err != nil {
		return err
	}
	if p.HotPromotions, b, err = readUvarint(b); err != nil {
		return err
	}
	if p.HotDemotions, b, err = readUvarint(b); err != nil {
		return err
	}
	if u, b, err = readUvarint(b); err != nil {
		return err
	}
	if u > maxShardStats {
		return perr(ErrBadBody, "stats payload shard block too large")
	}
	if u > 0 {
		p.ShardStats = make([]ShardTelemetry, u)
		for i := range p.ShardStats {
			st := &p.ShardStats[i]
			if st.Ops, b, err = readUvarint(b); err != nil {
				return err
			}
			if st.Aborts, b, err = readUvarint(b); err != nil {
				return err
			}
			if st.HotKeys, b, err = readUvarint(b); err != nil {
				return err
			}
			if st.WALBytes, b, err = readUvarint(b); err != nil {
				return err
			}
		}
	}
	if len(b) != 0 {
		return perr(ErrBadBody, "stats payload trailing bytes")
	}
	return nil
}

// appendString appends a u16-length-prefixed string.
func appendString(dst []byte, s string) []byte {
	if len(s) > 255 {
		s = s[:255]
	}
	dst = be16(dst, uint16(len(s)))
	return append(dst, s...)
}

// readString parses a u16-length-prefixed string.
func readString(b []byte) (string, []byte, error) {
	if len(b) < 2 {
		return "", nil, perr(ErrBadBody, "stats payload short string")
	}
	n := int(binary.BigEndian.Uint16(b))
	if len(b) < 2+n {
		return "", nil, perr(ErrBadBody, "stats payload short string")
	}
	return string(b[2 : 2+n]), b[2+n:], nil
}

// readUvarint parses one uvarint.
func readUvarint(b []byte) (uint64, []byte, error) {
	v, n := binary.Uvarint(b)
	if n <= 0 {
		return 0, nil, perr(ErrBadBody, "stats payload short varint")
	}
	return v, b[n:], nil
}
