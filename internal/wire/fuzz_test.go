// Malformed-input fuzzing for the codec (the serving layer's attack
// surface): decoders must be total — any byte string either decodes or
// returns a typed *ProtocolError; panics and silent misparses are bugs.
// Decoded requests must also re-encode canonically (encode∘decode is the
// identity on the wire bytes), so the server can never be confused about
// what it acknowledged.
package wire

import (
	"bytes"
	"testing"
)

func FuzzDecodeRequest(f *testing.F) {
	seeds := []Request{
		{Op: OpGet, Key: 1},
		{Op: OpPut, Key: 2, Val: 3},
		{Op: OpRemove, Key: -1},
		{Op: OpCompareAndMove, Key: 1, To: 2, Val: 7},
		{Op: OpMGet, Keys: []int64{1, 2, 3}},
		{Op: OpMPut, Keys: []int64{4}, Vals: []int64{5}},
		{Op: OpStats},
		{Op: OpPing},
		{Op: OpAdd, Key: 5, Val: 3},
		{Op: OpMAdd, Keys: []int64{6, 7}, Vals: []int64{-1, 1}},
	}
	for _, r := range seeds {
		f.Add(AppendRequest(nil, &r))
	}
	f.Add([]byte{})
	f.Add([]byte{0xff, 0x00, 0x80})
	var req Request
	f.Fuzz(func(t *testing.T, body []byte) {
		if err := req.Decode(body); err != nil {
			if _, ok := IsProtocolError(err); !ok {
				t.Fatalf("decode failed with untyped error %v", err)
			}
			return
		}
		// Canonical re-encode: a request the server accepts must encode
		// back to exactly the bytes it came from.
		if enc := AppendRequest(nil, &req); !bytes.Equal(enc, body) {
			t.Fatalf("decode/encode not canonical:\n in: %x\nout: %x", body, enc)
		}
	})
}

func FuzzDecodeResponse(f *testing.F) {
	seedResponses := []struct {
		op Op
		r  Response
	}{
		{OpGet, Response{Status: StatusOK, Val: 9}},
		{OpGet, Response{Status: StatusNotFound}},
		{OpRemove, Response{Status: StatusOK, Flag: true, Val: 1}},
		{OpMGet, Response{Status: StatusOK, Present: []bool{true}, Vals: []int64{2}}},
		{OpPing, Response{Status: StatusOK}},
		{OpAdd, Response{Status: StatusOK}},
		{OpMAdd, Response{Status: StatusOK}},
	}
	for _, s := range seedResponses {
		f.Add(uint8(s.op), AppendResponse(nil, s.op, &s.r))
	}
	f.Add(uint8(OpPut), AppendError(nil, ErrBadBody, "nope"))
	f.Add(uint8(0xee), []byte{0x00})
	var resp Response
	f.Fuzz(func(t *testing.T, op uint8, body []byte) {
		err := resp.Decode(Op(op), body)
		if err != nil {
			if _, ok := IsProtocolError(err); !ok {
				t.Fatalf("decode failed with untyped error %v", err)
			}
		}
	})
}

func FuzzDecodeStats(f *testing.F) {
	var p StatsPayload
	p.Engine, p.CM, p.Shards = "tl2", "passive", 4
	p.Ops[0].Count = 3
	p.Ops[0].Hist.RecordNS(500)
	f.Add(AppendStats(nil, &p))
	f.Add([]byte{statsVersion})
	f.Add([]byte{})
	full := fullStatsPayload()
	f.Add(AppendStats(nil, &full))
	var got StatsPayload
	f.Fuzz(func(t *testing.T, body []byte) {
		if err := got.Decode(body); err != nil {
			if _, ok := IsProtocolError(err); !ok {
				t.Fatalf("decode failed with untyped error %v", err)
			}
		}
	})
}
