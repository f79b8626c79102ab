// Malformed-input fuzzing for the record codec (what recovery parses
// from a possibly torn, possibly corrupt file): decoding must be total —
// any payload either decodes or returns a typed *FormatError — and
// accepted payloads must re-encode canonically, so a record the
// replayer trusts is exactly the bytes the committer wrote.
package wal

import (
	"bytes"
	"errors"
	"testing"
)

// fuzzSeeds is the seed corpus: one valid encoding per record shape
// (each effect op alone, a cross-shard composition of all three, a
// same-shard composition), their truncated tails, and a bit-flipped
// variant of each.
func fuzzSeeds() [][]byte {
	records := []Record{
		{Seq: 1, Effects: []Effect{{Shard: 2, Key: 42, Val: -7}}},
		{Seq: 2, Effects: []Effect{{Remove: true, Shard: 0, Key: -1}}},
		{Seq: 3, Effects: []Effect{{Delta: true, Shard: 1, Key: 42, Val: -7}}},
		{Seq: 4, Effects: []Effect{
			{Shard: 0, Key: 1, Val: 2},
			{Remove: true, Shard: 3, Key: 4},
			{Delta: true, Shard: 1, Key: 5, Val: -6},
		}},
		{Seq: 5, Effects: []Effect{{Shard: 1, Key: 7, Val: 8}, {Shard: 1, Key: 9, Val: 10}}},
	}
	var seeds [][]byte
	for i := range records {
		enc := AppendPayload(nil, records[i].Seq, records[i].Effects)
		seeds = append(seeds, enc)
		seeds = append(seeds, enc[:len(enc)-1]) // truncated tail
		flipped := bytes.Clone(enc)
		flipped[len(flipped)/2] ^= 0x40 // bit flip mid-payload
		seeds = append(seeds, flipped)
	}
	seeds = append(seeds, nil, []byte{0}, []byte{0xff})
	return seeds
}

func FuzzDecodePayload(f *testing.F) {
	for _, s := range fuzzSeeds() {
		f.Add(s)
	}
	var r Record
	f.Fuzz(func(t *testing.T, payload []byte) {
		if err := DecodePayload(payload, &r); err != nil {
			var fe *FormatError
			if !errors.As(err, &fe) {
				t.Fatalf("decode failed with untyped error %v", err)
			}
			return
		}
		// Canonical re-encode: a payload recovery accepts must encode
		// back to exactly the bytes on disk.
		if enc := AppendPayload(nil, r.Seq, r.Effects); !bytes.Equal(enc, payload) {
			t.Fatalf("decode/encode not canonical:\n in: %x\nout: %x", payload, enc)
		}
	})
}

// TestDecodeRejects pins the decoder's main refusals (the fuzzer proves
// totality; these prove the specific contracts recovery relies on).
func TestDecodeRejects(t *testing.T) {
	put := []Effect{{Shard: 1, Key: 1, Val: 2}}
	add := []Effect{{Delta: true, Shard: 1, Key: 1, Val: 2}}
	rm := []Effect{{Remove: true, Shard: 1, Key: 1}}
	cases := []struct {
		name    string
		payload []byte
	}{
		{"empty", nil},
		{"short header", []byte{0, 0, 0, 0, 0, 0, 0, 1, 0}},
		{"zero sequence", AppendPayload(nil, 0, put)},
		{"no effects", AppendPayload(nil, 1, nil)},
		{"too many effects", append(AppendPayload(nil, 1, nil)[:8], 0xff, 0xff)},
		{"unknown effect op", append(AppendPayload(nil, 1, nil)[:8], append([]byte{0, 1, 0xee}, make([]byte, 18)...)...)},
		{"put short", AppendPayload(nil, 1, put)[:20]},
		{"put trailing", append(AppendPayload(nil, 1, put), 0)},
		{"add short", AppendPayload(nil, 1, add)[:25]},
		{"add trailing", append(AppendPayload(nil, 1, add), 0)},
		{"remove short", AppendPayload(nil, 1, rm)[:20]},
		{"remove trailing", append(AppendPayload(nil, 1, rm), 0)},
	}
	var r Record
	for _, c := range cases {
		err := DecodePayload(c.payload, &r)
		var fe *FormatError
		if err == nil || !errors.As(err, &fe) {
			t.Errorf("%s: err = %v, want *FormatError", c.name, err)
		}
	}
}

// TestRoundTripAllKinds pins exact round-trips of every effect op,
// alone and mixed, including negative keys and values, the extreme
// sequence and the largest shard index.
func TestRoundTripAllKinds(t *testing.T) {
	records := []Record{
		{Seq: 1, Effects: []Effect{{Shard: 0, Key: -(1 << 62), Val: 1<<62 - 1}}},
		{Seq: 1<<64 - 1, Effects: []Effect{{Remove: true, Shard: 5, Key: 0}}},
		{Seq: 3, Effects: []Effect{{Delta: true, Shard: 1, Key: 1 << 50, Val: -3}}},
		{Seq: 2, Effects: []Effect{
			{Shard: maxShard - 1, Key: -9, Val: 9},
			{Remove: true, Shard: 0, Key: 0},
			{Shard: 1, Key: 1, Val: -1},
			{Delta: true, Shard: 2, Key: 8, Val: -(1 << 40)},
		}},
	}
	var got Record
	for i, want := range records {
		enc := AppendPayload(nil, want.Seq, want.Effects)
		if err := DecodePayload(enc, &got); err != nil {
			t.Fatalf("record %d: decode: %v", i, err)
		}
		if got.Seq != want.Seq || len(got.Effects) != len(want.Effects) {
			t.Fatalf("record %d: round-trip mismatch: %+v vs %+v", i, got, want)
		}
		for j := range got.Effects {
			if got.Effects[j] != want.Effects[j] {
				t.Fatalf("record %d effect %d: %+v vs %+v", i, j, got.Effects[j], want.Effects[j])
			}
		}
	}
}
