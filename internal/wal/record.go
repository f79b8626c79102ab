package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
)

// Effect is one key mutation of a record, tagged with the shard it lands
// on so recovery can check it against the directory's layout without
// knowing the store's hash function.
type Effect struct {
	Remove bool // true = remove (Delta must be false)
	Delta  bool // true = commutative add: Val is a delta, not an absolute value
	Shard  int
	Key    int64
	Val    int64 // put value or add delta; 0 for removes
}

// Record is one decoded log record: the effects of one committed
// mutation, elementary (one effect) or composed (several), under one
// sequence number.
type Record struct {
	Seq     uint64
	Effects []Effect
}

// Frame and payload limits. MaxEffects comfortably covers the wire
// protocol's per-request key limit (4096) plus slack, and keeps the
// largest record far below MaxRecordSize.
const (
	frameHeaderSize = 8       // u32 length + u32 crc
	MaxRecordSize   = 1 << 20 // payload bytes
	MaxEffects      = 8192
	maxShard        = 1 << 16 // Effect.Shard encodes as u16
)

// castagnoli is the CRC-32C table used for every checksum in the
// package (records, meta, snapshots).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// checksum is CRC-32C over b.
//
//compose:noalloc
func checksum(b []byte) uint32 { return crc32.Checksum(b, castagnoli) }

// FormatError is the typed decode error of the record codec: every
// malformed payload decodes to one (the fuzzer pins this).
type FormatError struct {
	Reason string
}

func (e *FormatError) Error() string { return "wal: bad record: " + e.Reason }

func ferr(reason string) error { return &FormatError{Reason: reason} }

// effect op bytes.
const (
	effPut    = 0
	effRemove = 1
	effAdd    = 2
)

// AppendPayload appends the canonical encoding of the record seq,
// effects (frame excluded) to dst. It is the inverse of DecodePayload.
//
//compose:noalloc
func AppendPayload(dst []byte, seq uint64, effects []Effect) []byte {
	dst = binary.BigEndian.AppendUint64(dst, seq)
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(effects)))
	for i := range effects {
		e := &effects[i]
		op := byte(effPut)
		switch {
		case e.Remove:
			op = effRemove
		case e.Delta:
			op = effAdd
		}
		dst = append(dst, op)
		dst = binary.BigEndian.AppendUint16(dst, uint16(e.Shard))
		dst = binary.BigEndian.AppendUint64(dst, uint64(e.Key))
		if op != effRemove {
			dst = binary.BigEndian.AppendUint64(dst, uint64(e.Val))
		}
	}
	return dst
}

// DecodePayload parses one record payload into r, reusing r.Effects.
// Every failure is a *FormatError; on success
// AppendPayload(nil, r.Seq, r.Effects) reproduces b exactly.
func DecodePayload(b []byte, r *Record) error {
	r.Effects = r.Effects[:0]
	if len(b) < 10 {
		return ferr("short header")
	}
	r.Seq = binary.BigEndian.Uint64(b)
	if r.Seq == 0 {
		return ferr("zero sequence")
	}
	count := int(binary.BigEndian.Uint16(b[8:]))
	if count == 0 || count > MaxEffects {
		return ferr("effect count out of range")
	}
	b = b[10:]
	for i := 0; i < count; i++ {
		if len(b) < 11 {
			return ferr("effect truncated")
		}
		e := Effect{Shard: int(binary.BigEndian.Uint16(b[1:])), Key: int64(binary.BigEndian.Uint64(b[3:]))}
		switch op := b[0]; op {
		case effPut, effAdd:
			if len(b) < 19 {
				return ferr("effect truncated")
			}
			e.Delta = op == effAdd
			e.Val = int64(binary.BigEndian.Uint64(b[11:]))
			b = b[19:]
		case effRemove:
			e.Remove = true
			b = b[11:]
		default:
			return ferr("unknown effect op")
		}
		r.Effects = append(r.Effects, e)
	}
	if len(b) != 0 {
		return ferr("trailing bytes")
	}
	return nil
}

// errEffectCount is appendFrame's panic value.
var errEffectCount = errors.New("wal: record effect count out of range")

// appendFrame appends the framed encoding of one record (length, CRC,
// payload). A record carries 1..MaxEffects effects; anything else is a
// caller bug the decoder would refuse, so it panics here instead.
//
//compose:noalloc
func appendFrame(dst []byte, seq uint64, effects []Effect) []byte {
	if len(effects) == 0 || len(effects) > MaxEffects {
		panic(errEffectCount)
	}
	start := len(dst)
	dst = append(dst, 0, 0, 0, 0, 0, 0, 0, 0)
	dst = AppendPayload(dst, seq, effects)
	payload := dst[start+frameHeaderSize:]
	binary.BigEndian.PutUint32(dst[start:], uint32(len(payload)))
	binary.BigEndian.PutUint32(dst[start+4:], checksum(payload))
	return dst
}

// CorruptError describes where and why the log stopped being
// trustworthy: scanning keeps everything before Off and discards the
// rest. Seq is the last sequence number that survived.
type CorruptError struct {
	Off    int64
	Seq    uint64
	Reason string
}

func (e *CorruptError) Error() string {
	return fmt.Sprintf("wal: log corrupt at offset %d (last valid seq %d): %s", e.Off, e.Seq, e.Reason)
}
