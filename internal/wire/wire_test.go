package wire

import (
	"bytes"
	"errors"
	"io"
	"reflect"
	"strings"
	"testing"
	"time"

	"oestm/internal/stm"
)

// TestFrameRoundTrip pins frame IO: bodies round trip, capacity is
// reused, clean EOF at a boundary is io.EOF, and both truncation points
// (header, body) are typed.
func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	bodies := [][]byte{{1}, {2, 3, 4}, make([]byte, 1000), {}}
	for _, b := range bodies {
		if err := WriteFrame(&buf, b); err != nil {
			t.Fatal(err)
		}
	}
	var scratch []byte
	for i, want := range bodies {
		var err error
		scratch, err = ReadFrame(&buf, scratch, 0)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if !bytes.Equal(scratch, want) {
			t.Fatalf("frame %d: got %d bytes, want %d", i, len(scratch), len(want))
		}
	}
	if _, err := ReadFrame(&buf, scratch, 0); err != io.EOF {
		t.Fatalf("end of stream: %v, want io.EOF", err)
	}

	truncated := [][]byte{
		{0x00, 0x00},                   // half a header
		{0x00, 0x00, 0x00, 0x05, 0xaa}, // header promising 5, body has 1
	}
	for i, raw := range truncated {
		_, err := ReadFrame(bytes.NewReader(raw), nil, 0)
		pe, ok := IsProtocolError(err)
		if !ok || pe.Code != ErrTruncated {
			t.Fatalf("truncated case %d: %v, want ErrTruncated", i, err)
		}
	}
}

// errReader fails every read with a fixed transport error.
type errReader struct{ err error }

func (r errReader) Read([]byte) (int, error) { return 0, r.err }

// TestReadFrameTransportErrorPassthrough pins that non-EOF transport
// failures (read deadlines during a drain, resets) are NOT reported as
// protocol errors: only a stream that actually ends mid-frame is
// "truncated".
func TestReadFrameTransportErrorPassthrough(t *testing.T) {
	sentinel := errors.New("deadline exceeded")
	_, err := ReadFrame(errReader{sentinel}, nil, 0)
	if err != sentinel {
		t.Fatalf("header transport error: got %v, want the raw sentinel", err)
	}
	if _, ok := IsProtocolError(err); ok {
		t.Fatal("transport error must not be a ProtocolError")
	}
}

// TestFrameSizeLimits pins the oversized-frame rejections on both sides.
func TestFrameSizeLimits(t *testing.T) {
	if err := WriteFrame(io.Discard, make([]byte, MaxBody+1)); err == nil {
		t.Fatal("WriteFrame accepted an oversized body")
	}
	var hdr bytes.Buffer
	if err := WriteFrame(&hdr, make([]byte, 64)); err != nil {
		t.Fatal(err)
	}
	_, err := ReadFrame(bytes.NewReader(hdr.Bytes()), nil, 16)
	pe, ok := IsProtocolError(err)
	if !ok || pe.Code != ErrFrameTooLarge {
		t.Fatalf("got %v, want ErrFrameTooLarge", err)
	}
	// A huge announced length must be rejected before any allocation.
	raw := []byte{0xff, 0xff, 0xff, 0xff}
	_, err = ReadFrame(bytes.NewReader(raw), nil, 0)
	if pe, ok = IsProtocolError(err); !ok || pe.Code != ErrFrameTooLarge {
		t.Fatalf("got %v, want ErrFrameTooLarge", err)
	}
}

// TestRequestRoundTrip pins every opcode's request encoding.
func TestRequestRoundTrip(t *testing.T) {
	reqs := []Request{
		{Op: OpGet, Key: -5},
		{Op: OpRemove, Key: 1 << 40},
		{Op: OpPut, Key: 3, Val: -9},
		{Op: OpCompareAndMove, Key: 1, To: 2, Val: 7},
		{Op: OpMGet, Keys: []int64{1, -2, 3}},
		{Op: OpMPut, Keys: []int64{4, 5}, Vals: []int64{-6, 7}},
		{Op: OpMGet, Keys: []int64{}},
		{Op: OpStats},
		{Op: OpPing},
		{Op: OpAdd, Key: 11, Val: -4},
		{Op: OpMAdd, Keys: []int64{12, 13}, Vals: []int64{30, -30}},
	}
	var body []byte
	var got Request
	for i, r := range reqs {
		body = AppendRequest(body[:0], &r)
		if err := got.Decode(body); err != nil {
			t.Fatalf("req %d (%s): %v", i, r.Op, err)
		}
		if got.Op != r.Op || got.Key != r.Key || got.To != r.To || got.Val != r.Val {
			t.Fatalf("req %d (%s): scalars changed: %+v vs %+v", i, r.Op, got, r)
		}
		if len(got.Keys) != len(r.Keys) || len(got.Vals) != len(r.Vals) {
			t.Fatalf("req %d (%s): slice lengths changed", i, r.Op)
		}
		for j := range r.Keys {
			if got.Keys[j] != r.Keys[j] {
				t.Fatalf("req %d: key %d changed", i, j)
			}
		}
		for j := range r.Vals {
			if got.Vals[j] != r.Vals[j] {
				t.Fatalf("req %d: val %d changed", i, j)
			}
		}
	}
}

// TestResponseRoundTrip pins every response shape, including errors.
func TestResponseRoundTrip(t *testing.T) {
	cases := []struct {
		op Op
		r  Response
	}{
		{OpGet, Response{Status: StatusOK, Val: -77}},
		{OpGet, Response{Status: StatusNotFound}},
		{OpPut, Response{Status: StatusOK, Flag: true}},
		{OpCompareAndMove, Response{Status: StatusOK, Flag: false}},
		{OpRemove, Response{Status: StatusOK, Flag: true, Val: 12}},
		{OpMGet, Response{Status: StatusOK, Present: []bool{true, false}, Vals: []int64{5, 0}}},
		{OpMPut, Response{Status: StatusOK}},
		{OpPing, Response{Status: StatusOK}},
		{OpAdd, Response{Status: StatusOK}},
		{OpMAdd, Response{Status: StatusOK}},
	}
	var body []byte
	var got Response
	for i, c := range cases {
		body = AppendResponse(body[:0], c.op, &c.r)
		if err := got.Decode(c.op, body); err != nil {
			t.Fatalf("case %d (%s): %v", i, c.op, err)
		}
		if got.Status != c.r.Status || got.Flag != c.r.Flag || got.Val != c.r.Val {
			t.Fatalf("case %d (%s): %+v vs %+v", i, c.op, got, c.r)
		}
		if len(got.Vals) != len(c.r.Vals) {
			t.Fatalf("case %d: vals length changed", i)
		}
		for j := range c.r.Vals {
			if got.Vals[j] != c.r.Vals[j] || got.Present[j] != c.r.Present[j] {
				t.Fatalf("case %d: entry %d changed", i, j)
			}
		}
	}

	body = AppendError(body[:0], ErrRetryExhausted, "gave up")
	err := got.Decode(OpPut, body)
	pe, ok := IsProtocolError(err)
	if !ok || pe.Code != ErrRetryExhausted || pe.Msg != "gave up" {
		t.Fatalf("error response: %v", err)
	}
	if got.Status != StatusErr || got.Err != ErrRetryExhausted || got.Msg != "gave up" {
		t.Fatalf("error response fields: %+v", got)
	}
}

// TestDecodeRejections pins the typed failure of each malformed-input
// class.
func TestDecodeRejections(t *testing.T) {
	var r Request
	cases := []struct {
		body []byte
		code ErrCode
	}{
		{nil, ErrBadBody},                        // empty
		{[]byte{200}, ErrBadOpcode},              // unknown opcode
		{[]byte{byte(OpGet), 1, 2}, ErrBadBody},  // short body
		{[]byte{byte(OpPing), 9}, ErrBadBody},    // trailing bytes
		{[]byte{byte(OpMGet), 0xff}, ErrBadBody}, // missing count byte
		{[]byte{byte(OpMGet), 0xff, 0xff}, ErrTooManyKeys},
		{append([]byte{byte(OpMGet), 0x00, 0x02}, make([]byte, 8)...), ErrBadBody}, // count 2, one key
		{append([]byte{byte(OpMPut), 0x00, 0x01}, make([]byte, 8)...), ErrBadBody}, // entry missing val
		{[]byte{byte(OpAdd), 1, 2, 3}, ErrBadBody},                                 // short add body
		{append([]byte{byte(OpMAdd), 0x00, 0x01}, make([]byte, 8)...), ErrBadBody}, // entry missing delta
	}
	for i, c := range cases {
		err := r.Decode(c.body)
		pe, ok := IsProtocolError(err)
		if !ok || pe.Code != c.code {
			t.Errorf("case %d: %v, want code %v", i, err, c.code)
		}
	}
}

// fullStatsPayload populates every field of a payload, every scalar with
// a distinct value (the tables assign them, so a new row is covered the
// day it is added): a codec, Sub or Add that swaps, skips or doubles a
// field cannot round-trip it.
func fullStatsPayload() StatsPayload {
	p := StatsPayload{Engine: "oestm", CM: "adaptive", Shards: 16, Conns: 3, WALEnabled: true, Exec: "batch"}
	for i := range p.Ops {
		p.Ops[i].Count = uint64(10 * i)
		for j := 0; j < i*5; j++ {
			p.Ops[i].Hist.Record(time.Duration(j) * time.Microsecond)
		}
	}
	for i := range p.AbortsByCause {
		p.AbortsByCause[i] = uint64(i)
	}
	next := uint64(1000)
	for i := range StatsTable {
		if f := StatsTable[i].Field; f != nil {
			*f(&p) = next
			next++
		}
	}
	p.ShardStats = make([]ShardTelemetry, p.Shards)
	for s := range p.ShardStats {
		for i := range ShardTable {
			*ShardTable[i].Field(&p.ShardStats[s]) = next
			next++
		}
	}
	return p
}

// TestStatsPayloadRoundTrip pins the telemetry encoding end to end:
// whole payloads compared, every field populated.
func TestStatsPayloadRoundTrip(t *testing.T) {
	p := fullStatsPayload()
	body := AppendStats(nil, &p)
	var got StatsPayload
	if err := got.Decode(body); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, p) {
		t.Fatalf("payload changed in flight:\n got %+v\nwant %+v", got, p)
	}

	if err := got.Decode(body[:len(body)-1]); err == nil {
		t.Fatal("truncated stats payload accepted")
	}
	if err := got.Decode(append(body, 0)); err == nil {
		t.Fatal("stats payload with trailing bytes accepted")
	}
	if err := got.Decode([]byte{99}); err == nil {
		t.Fatal("wrong version accepted")
	}
}

// uint64Fields returns the address of every uint64 field of the struct
// v points to, by name.
func uint64Fields(v any) map[string]*uint64 {
	out := map[string]*uint64{}
	rv := reflect.ValueOf(v).Elem()
	for i := 0; i < rv.NumField(); i++ {
		if f := rv.Field(i); f.Kind() == reflect.Uint64 {
			out[rv.Type().Field(i).Name] = f.Addr().Interface().(*uint64)
		}
	}
	return out
}

// checkTableCoversFields asserts the "declare once" contract of a stats
// table against its struct by reflection (test-only): every uint64 field
// is addressed by exactly one row, so a field added without its row —
// which no codec, delta, series or column would then carry — fails here.
func checkTableCoversFields[T any](t *testing.T, table []Stat[T]) {
	t.Helper()
	var v T
	hits := map[*uint64]int{}
	names := map[string]bool{}
	for i := range table {
		d := &table[i]
		if names[d.Name] {
			t.Errorf("row name %q appears twice", d.Name)
		}
		names[d.Name] = true
		if (d.Field != nil) == (d.Label != nil) {
			t.Errorf("row %q must have exactly one of Field and Label", d.Name)
		}
		if (d.Label != nil) != (d.Kind == StatFlag || d.Kind == StatLabel) {
			t.Errorf("row %q: kind %d does not match its accessor", d.Name, d.Kind)
		}
		if d.Field != nil {
			hits[d.Field(&v)]++
		}
	}
	for name, addr := range uint64Fields(&v) {
		if hits[addr] != 1 {
			t.Errorf("%T.%s is addressed by %d table rows, want exactly 1", v, name, hits[addr])
		}
		delete(hits, addr)
	}
	if len(hits) != 0 {
		t.Errorf("%d rows address storage that is not a uint64 field of %T", len(hits), v)
	}
}

func TestStatsTablesCoverEveryField(t *testing.T) {
	checkTableCoversFields(t, StatsTable)
	checkTableCoversFields(t, ShardTable)
}

// TestStatsPayloadSubAdd pins the window arithmetic the tables drive:
// Sub leaves exactly what happened between two scrapes (counters,
// per-opcode counts, histograms, causes, per-shard counters), keeps the
// later scrape's identity and gauges, saturates instead of wrapping, and
// leaves both operands' shard rows alone; Add is its inverse on counters.
func TestStatsPayloadSubAdd(t *testing.T) {
	s0 := fullStatsPayload()
	s1 := fullStatsPayload()
	s1.Conns = 9
	for i := range StatsTable {
		if f := StatsTable[i].Field; f != nil {
			*f(&s1) += uint64(i + 1)
		}
	}
	s1.AbortsByCause[2] += 5
	s1.Ops[1].Count += 7
	s1.Ops[1].Hist.Record(3 * time.Millisecond)
	s1.ShardStats[4] = ShardTelemetry{Ops: s0.ShardStats[4].Ops + 11, Aborts: s0.ShardStats[4].Aborts, HotKeys: 2}
	s1.ShardStats[5].Ops = 0 // a peer that went backwards clamps, not wraps

	keep := s1
	keep.ShardStats = append([]ShardTelemetry(nil), s1.ShardStats...)
	d := s1
	d.Sub(&s0)
	if !reflect.DeepEqual(s1, keep) {
		t.Fatal("Sub on a by-value copy disturbed the original's shard rows")
	}
	if d.Engine != s1.Engine || d.Conns != 9 || !d.WALEnabled || d.Exec != s1.Exec {
		t.Fatalf("identity not the later scrape's: %+v", d)
	}
	for i := range StatsTable {
		if f := StatsTable[i].Field; f != nil && *f(&d) != uint64(i+1) {
			t.Errorf("%s delta = %d, want %d", StatsTable[i].Name, *f(&d), i+1)
		}
	}
	if d.AbortsByCause[2] != 5 || d.AbortsByCause[3] != 0 {
		t.Errorf("cause deltas: %v", d.AbortsByCause)
	}
	if d.Ops[1].Count != 7 || d.Ops[1].Hist.Count() != 1 || d.Ops[2].Count != 0 || d.Ops[2].Hist.Count() != 0 {
		t.Errorf("op deltas: count %d, hist %d", d.Ops[1].Count, d.Ops[1].Hist.Count())
	}
	if got, want := d.ShardStats[4], (ShardTelemetry{Ops: 11, HotKeys: 2}); got != want {
		t.Errorf("shard 4 delta = %+v, want %+v (hot_keys is a gauge: later reading kept)", got, want)
	}
	if d.ShardStats[5].Ops != 0 {
		t.Errorf("backwards counter wrapped to %d", d.ShardStats[5].Ops)
	}

	// Add folds the window back onto its base: counters return to the
	// later scrape's, apart from the one clamped above.
	sum := s0
	sum.Add(&d)
	for i := range StatsTable {
		if f := StatsTable[i].Field; f != nil && *f(&sum) != *f(&s1) {
			t.Errorf("%s: base+window = %d, want %d", StatsTable[i].Name, *f(&sum), *f(&s1))
		}
	}
	if sum.Ops[1] != s1.Ops[1] || sum.AbortsByCause != s1.AbortsByCause {
		t.Error("Add did not restore the per-opcode and per-cause counters")
	}
	if sum.ShardStats[4].Ops != s1.ShardStats[4].Ops || sum.ShardStats[4].HotKeys != s0.ShardStats[4].HotKeys {
		t.Errorf("shard 4 after Add: %+v", sum.ShardStats[4])
	}
}

// TestStatsPayloadShardBlockTrailing pins the trailing-fields compat
// rule for the statsVersion 5 per-shard block: the new fields live at
// the very end of the encoding (the bytes before them are exactly the
// previous layout with its version byte bumped), and version mismatch
// stays a loud failure in both directions — a stale decoder rejects v5
// bytes instead of misparsing the block as trailing garbage.
func TestStatsPayloadShardBlockTrailing(t *testing.T) {
	p := StatsPayload{Engine: "oestm", CM: "adaptive", Shards: 2,
		ShardStats: []ShardTelemetry{{Ops: 7, Aborts: 1, HotKeys: 2}, {Ops: 3}}}
	body := AppendStats(nil, &p)

	q := p
	q.ShardStats = nil
	empty := AppendStats(nil, &q)
	// An empty block encodes as one trailing zero count; everything
	// before it must be byte-identical between the two payloads, pinning
	// that the block (and nothing else) rides at the end.
	if empty[len(empty)-1] != 0 || !bytes.HasPrefix(body, empty[:len(empty)-1]) {
		t.Fatal("per-shard block is not a pure trailing extension of the previous layout")
	}

	// A decoder built against the previous version sees a version byte it
	// doesn't know and must fail before touching the layout. Simulate the
	// converse here: v5's decoder must reject bytes stamped with the old
	// version even though everything after the version byte parses.
	forged := append([]byte{}, body...)
	forged[0] = 4
	var got StatsPayload
	if err := got.Decode(forged); err == nil {
		t.Fatal("decoder accepted a stale version byte")
	}
}

// TestCauseCountPinned fails when a new ConflictCause is added without
// bumping the stats payload version: old clients would misassign the
// per-cause columns.
func TestCauseCountPinned(t *testing.T) {
	if stm.NumCauses != 8 {
		t.Fatalf("stm.NumCauses = %d; the stats payload layout depends on it — bump wire.statsVersion and update this pin", stm.NumCauses)
	}
}

// TestErrorStrings covers the diagnostic surfaces.
func TestErrorStrings(t *testing.T) {
	if s := perr(ErrFrameTooLarge, "x").Error(); !strings.Contains(s, "frame-too-large") {
		t.Error(s)
	}
	if Op(200).String() != "op(200)" || ErrCode(200).String() != "err(200)" {
		t.Error("out-of-range names")
	}
	var pe *ProtocolError
	if !errors.As(error(perr(ErrBadBody, "")), &pe) {
		t.Error("errors.As must match ProtocolError")
	}
}
