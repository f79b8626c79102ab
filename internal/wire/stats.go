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
// (ShardStats); 6 = the regular, table-driven layout (no field added):
// identity header (engine, cm, exec, shards, conns, wal flag), per-opcode
// block, then three count-prefixed blocks — abort causes, StatsTable's
// scalars in table order, ShardTable rows per shard, last — so a new
// counter is one more scalar, and a peer built without it fails the
// count check loudly; 7 = the shard_wal_bytes row dropped from
// ShardTable (the log is one file, not one per shard).
const statsVersion = 7

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
// associatively, so scraping twice and diffing (Sub) is sound.
//
// Every uint64 field here needs exactly one row in StatsTable — the row
// is what puts it on the wire, into window deltas, on /metrics and in
// the CSV (TestStatsTablesCoverEveryField fails for a field without one).
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
	// shard, indexed by shard; the trailing block of the encoding). It
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
type ShardTelemetry struct {
	Ops     uint64
	Aborts  uint64
	HotKeys uint64
}

// StatKind says how one telemetry scalar behaves over time, which is
// what every consumer of the tables below needs to know about it.
type StatKind uint8

const (
	// StatCounter is monotone: diffed across a window, summed across runs,
	// a Prometheus counter (compose_<name>_total).
	StatCounter StatKind = iota
	// StatGauge is a point-in-time value: a window keeps the later
	// scrape's reading; a Prometheus gauge (compose_<name>).
	StatGauge
	// StatFlag is an on/off identity flag read through Label: a CSV cell,
	// and a 0/1 Prometheus gauge (compose_<name>_enabled).
	StatFlag
	// StatLabel is an identity string read through Label: a CSV cell only
	// (/metrics carries identity on compose_server_info).
	StatLabel
)

// FlagOn and FlagOff are the two values a StatFlag row's Label returns.
const (
	FlagOn  = "on"
	FlagOff = "off"
)

// onOff renders a flag as FlagOn or FlagOff.
func onOff(b bool) string {
	if b {
		return FlagOn
	}
	return FlagOff
}

// Stat describes one scalar of T (StatsPayload or ShardTelemetry). The
// two tables of these rows are the only place the counter list is
// written down: the wire codec, the Sub/Add window arithmetic, the
// /metrics exposition and the harness CSV all walk them, in order.
type Stat[T any] struct {
	// Name is the CSV column and the Prometheus stem (see StatKind).
	Name string
	// Help is the Prometheus HELP text.
	Help string
	Kind StatKind
	// CSV reports whether the harness CSV carries the row as one of its
	// trailing server columns (commits/aborts have their own, earlier
	// columns, shared with in-process results).
	CSV bool
	// ByCause marks the row whose total AbortsByCause breaks down;
	// /metrics exposes the breakdown in place of the total.
	ByCause bool
	// Field addresses a counter's or gauge's storage; nil otherwise.
	Field func(*T) *uint64
	// Label reads a flag's or label's value; nil otherwise.
	Label func(*T) string
}

// StatsTable lists StatsPayload's scalars. Order is the wire order of
// the scalar block, the /metrics family order and the CSV column order;
// append new rows where their CSV column may go (in practice: last).
var StatsTable = []Stat[StatsPayload]{
	{Name: "commits", Help: "Committed transactions.", Field: func(p *StatsPayload) *uint64 { return &p.Commits }},
	{Name: "aborts", Help: "Aborted transaction attempts, by conflict cause.", ByCause: true, Field: func(p *StatsPayload) *uint64 { return &p.Aborts }},
	{Name: "wal", Help: "Whether a write-ahead log is attached (1) or not (0).", Kind: StatFlag, CSV: true, Label: func(p *StatsPayload) string { return onOff(p.WALEnabled) }},
	{Name: "wal_appends", Help: "WAL records appended.", CSV: true, Field: func(p *StatsPayload) *uint64 { return &p.WALAppends }},
	{Name: "wal_syncs", Help: "WAL flush batches fully written.", CSV: true, Field: func(p *StatsPayload) *uint64 { return &p.WALSyncs }},
	{Name: "wal_bytes", Help: "Bytes the OS accepted into WAL files.", CSV: true, Field: func(p *StatsPayload) *uint64 { return &p.WALBytes }},
	{Name: "exec", Kind: StatLabel, CSV: true, Label: func(p *StatsPayload) string { return p.Exec }},
	{Name: "spec_batches", Help: "Speculative batches committed.", Field: func(p *StatsPayload) *uint64 { return &p.SpecBatches }},
	{Name: "spec_execs", Help: "Speculative execution attempts.", CSV: true, Field: func(p *StatsPayload) *uint64 { return &p.SpecExecs }},
	{Name: "spec_reexecs", Help: "Speculative attempts beyond a transaction's first.", CSV: true, Field: func(p *StatsPayload) *uint64 { return &p.SpecReexecs }},
	{Name: "spec_validation_fails", Help: "Speculative attempts whose read set failed validation.", CSV: true, Field: func(p *StatsPayload) *uint64 { return &p.SpecValidationFails }},
	{Name: "adds", Help: "Integer deltas applied (Add ops plus MAdd entries), any path.", CSV: true, Field: func(p *StatsPayload) *uint64 { return &p.Adds }},
	{Name: "boosted_ops", Help: "Deltas that ran on the boosted commutative path.", CSV: true, Field: func(p *StatsPayload) *uint64 { return &p.BoostedOps }},
	{Name: "hot_promotions", Help: "Keys promoted to the boosted path.", CSV: true, Field: func(p *StatsPayload) *uint64 { return &p.HotPromotions }},
	{Name: "hot_demotions", Help: "Keys demoted (folded back) by absolute operations.", CSV: true, Field: func(p *StatsPayload) *uint64 { return &p.HotDemotions }},
}

// ShardTable lists ShardTelemetry's scalars: the wire order of one
// per-shard row and the /metrics family order of the per-shard series.
var ShardTable = []Stat[ShardTelemetry]{
	{Name: "shard_ops", Help: "Key-operations routed to the shard.", Field: func(s *ShardTelemetry) *uint64 { return &s.Ops }},
	{Name: "shard_aborts", Help: "Aborted attempts attributed to the shard.", Field: func(s *ShardTelemetry) *uint64 { return &s.Aborts }},
	{Name: "shard_hot_keys", Help: "Counters currently promoted to the boosted path, by shard.", Kind: StatGauge, Field: func(s *ShardTelemetry) *uint64 { return &s.HotKeys }},
}

// textPad and its call below hold this package's machine code at its
// former size modulo 64 bytes, and do nothing else. Go starts functions
// on 32-byte boundaries and cannot be asked for more, so a package's
// code size fixes the 64-byte alignment of every function linked after
// it. In the benchmark binary that includes the core and eec read
// loops, and with them starting at 32 mod 64 the in-process lib-compose
// workload ran 8 % slower and set up 30 % slower. Dropping the
// shard_wal_bytes row removed one closure and flipped that alignment;
// these restore it. Remove them once the build aligns hot code itself
// (profile-guided optimisation aligns hot loop blocks).
//
//go:noinline
func textPad(x int) int { return x + 1 }

var _ = textPad(1)

// numFields counts a table's wire-carried rows (those with storage).
func numFields[T any](table []Stat[T]) (n uint64) {
	for i := range table {
		if table[i].Field != nil {
			n++
		}
	}
	return n
}

// appendFields appends v's scalars in table order.
func appendFields[T any](dst []byte, table []Stat[T], v *T) []byte {
	for i := range table {
		if f := table[i].Field; f != nil {
			dst = binary.AppendUvarint(dst, *f(v))
		}
	}
	return dst
}

// readFields parses v's scalars in table order.
func readFields[T any](b []byte, table []Stat[T], v *T) ([]byte, error) {
	var err error
	for i := range table {
		if f := table[i].Field; f != nil {
			if *f(v), b, err = readUvarint(b); err != nil {
				return nil, err
			}
		}
	}
	return b, nil
}

// foldFields folds q's counters into v's through f, in table order;
// gauges keep v's reading.
func foldFields[T any](table []Stat[T], v, q *T, f func(a, b uint64) uint64) {
	for i := range table {
		if d := &table[i]; d.Kind == StatCounter {
			x := d.Field(v)
			*x = f(*x, *d.Field(q))
		}
	}
}

// Sub turns p into the window since the earlier scrape prev: every
// counter, per-opcode count and latency histogram becomes the delta
// (saturating at zero, so a misbehaving peer clamps a column instead of
// wrapping it), while identity and gauges keep p's — the later —
// reading. p.ShardStats is reallocated, so a by-value copy of a payload
// can be diffed without disturbing the original's rows.
func (p *StatsPayload) Sub(prev *StatsPayload) {
	p.fold(prev, (*stats.Histogram).Sub, func(a, b uint64) uint64 {
		if a < b {
			return 0
		}
		return a - b
	})
}

// Add accumulates q's counters, per-opcode counts and histograms into p
// (summing the windows of repeated runs); identity and gauges stay p's.
// Like Sub it reallocates p.ShardStats.
func (p *StatsPayload) Add(q *StatsPayload) {
	p.fold(q, (*stats.Histogram).Merge, func(a, b uint64) uint64 { return a + b })
}

// fold is the shared walk of Sub and Add.
func (p *StatsPayload) fold(q *StatsPayload, hist func(h, o *stats.Histogram), f func(a, b uint64) uint64) {
	for i := range p.Ops {
		p.Ops[i].Count = f(p.Ops[i].Count, q.Ops[i].Count)
		hist(&p.Ops[i].Hist, &q.Ops[i].Hist)
	}
	for i := range p.AbortsByCause {
		p.AbortsByCause[i] = f(p.AbortsByCause[i], q.AbortsByCause[i])
	}
	foldFields(StatsTable, p, q, f)
	rows := append([]ShardTelemetry(nil), p.ShardStats...)
	for i := 0; i < len(rows) && i < len(q.ShardStats); i++ {
		foldFields(ShardTable, &rows[i], &q.ShardStats[i], f)
	}
	p.ShardStats = rows
}

// STM returns the payload's transaction counters in stm.Stats form (the
// inverse of AddSTM), for the abort-rate arithmetic that lives there.
func (p *StatsPayload) STM() stm.Stats {
	return stm.Stats{Commits: p.Commits, Aborts: p.Aborts, AbortsByCause: p.AbortsByCause}
}

// AppendStats appends the encoded payload to dst: version byte, identity
// header, per-opcode block, then three count-prefixed blocks — abort
// causes, StatsTable's scalars, and one ShardTable row per shard, last.
func AppendStats(dst []byte, p *StatsPayload) []byte {
	dst = append(dst, statsVersion)
	dst = appendString(dst, p.Engine)
	dst = appendString(dst, p.CM)
	dst = appendString(dst, p.Exec)
	dst = binary.AppendUvarint(dst, uint64(p.Shards))
	dst = binary.AppendUvarint(dst, uint64(p.Conns))
	var walFlag byte
	if p.WALEnabled {
		walFlag = 1
	}
	dst = append(dst, walFlag)
	for i := range p.Ops {
		dst = binary.AppendUvarint(dst, p.Ops[i].Count)
		dst = p.Ops[i].Hist.AppendBinary(dst)
	}
	dst = binary.AppendUvarint(dst, uint64(stm.NumCauses))
	for _, n := range p.AbortsByCause {
		dst = binary.AppendUvarint(dst, n)
	}
	dst = binary.AppendUvarint(dst, numFields(StatsTable))
	dst = appendFields(dst, StatsTable, p)
	dst = binary.AppendUvarint(dst, uint64(len(p.ShardStats)))
	for i := range p.ShardStats {
		dst = appendFields(dst, ShardTable, &p.ShardStats[i])
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
	if p.Exec, b, err = readString(b); err != nil {
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
	if len(b) == 0 || b[0] > 1 {
		return perr(ErrBadBody, "stats payload bad wal flag")
	}
	p.WALEnabled = b[0] == 1
	b = b[1:]
	for i := range p.Ops {
		if p.Ops[i].Count, b, err = readUvarint(b); err != nil {
			return err
		}
		if b, err = p.Ops[i].Hist.DecodeBinary(b); err != nil {
			return perr(ErrBadBody, "stats histogram: "+err.Error())
		}
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
	if u, b, err = readUvarint(b); err != nil {
		return err
	}
	if u != numFields(StatsTable) {
		return perr(ErrBadBody, fmt.Sprintf("stats payload has %d scalars, want %d", u, numFields(StatsTable)))
	}
	if b, err = readFields(b, StatsTable, p); err != nil {
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
			if b, err = readFields(b, ShardTable, &p.ShardStats[i]); err != nil {
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
