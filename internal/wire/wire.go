// Package wire is the serving layer's binary protocol: length-prefixed
// frames over a byte stream, one request or response per frame, with
// pipelining (a client may send any number of requests before reading;
// responses come back in request order).
//
// Frame layout: a 4-byte big-endian body length, then the body. Request
// bodies start with an opcode byte, response bodies with a status byte;
// integers are big-endian fixed width (keys and values are 8 bytes, key
// counts 2 bytes). The stats payload is the one variable-size structure
// and uses the compact encodings of its parts (stats.Histogram uvarint
// runs).
//
// The codec is total and typed: every malformed input — oversized or
// truncated frames, unknown opcodes, short or trailing bytes, key counts
// beyond MaxKeys — decodes to a *ProtocolError with a machine-readable
// code rather than a panic or a silent misparse (fuzzed in
// fuzz_test.go). Decoders reuse the caller's buffers; nothing on the
// request path allocates once buffers have grown to their steady size.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// Op enumerates the request opcodes.
type Op uint8

const (
	// OpGet reads one key: key u64 → val u64 (StatusNotFound if absent).
	OpGet Op = iota
	// OpPut stores one key: key u64, val u64 → flag (key existed).
	OpPut
	// OpRemove deletes one key: key u64 → flag (removed), val u64.
	OpRemove
	// OpMGet reads n keys as one atomic snapshot: n u16, n×key →
	// n×(present u8, val u64).
	OpMGet
	// OpMPut stores n entries as one transaction: n u16, n×(key, val).
	OpMPut
	// OpCompareAndMove relocates a value between keys (cross-shard
	// composition): from u64, to u64, expect u64 → flag (moved).
	OpCompareAndMove
	// OpStats returns the server's merged telemetry (see StatsPayload).
	OpStats
	// OpPing is a no-op round trip (liveness, drain barriers).
	OpPing
	// OpAdd applies one integer delta: key u64, delta u64 → status only.
	// A blind commutative write — no read, no returned value — so the
	// server may execute it on the boosted hot-key path.
	OpAdd
	// OpMAdd applies n deltas as one atomic cross-shard composition:
	// n u16, n×(key, delta) → status only.
	OpMAdd

	// NumOps is the number of opcodes; per-op arrays are sized by it.
	NumOps = int(OpMAdd) + 1
)

// opNames indexes display names by opcode.
var opNames = [NumOps]string{"get", "put", "remove", "mget", "mput", "cam", "stats", "ping", "add", "madd"}

// String names the opcode.
func (o Op) String() string {
	if int(o) < NumOps {
		return opNames[o]
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// Status is the first byte of every response body.
type Status uint8

const (
	// StatusOK: the operation ran; payload follows.
	StatusOK Status = iota
	// StatusNotFound: Get on an absent key (no payload).
	StatusNotFound
	// StatusErr: the request failed; payload is code u8, msg u16+bytes.
	StatusErr
)

// ErrCode is the machine-readable class of a protocol error.
type ErrCode uint8

const (
	// ErrUnknown is the zero code (never produced by this package).
	ErrUnknown ErrCode = iota
	// ErrFrameTooLarge: announced body length beyond the receiver's max.
	ErrFrameTooLarge
	// ErrTruncated: the stream ended inside a frame header or body.
	ErrTruncated
	// ErrBadOpcode: request body with an unknown opcode.
	ErrBadOpcode
	// ErrBadBody: body too short, trailing bytes, or malformed payload.
	ErrBadBody
	// ErrTooManyKeys: MGet/MPut key count beyond MaxKeys.
	ErrTooManyKeys
	// ErrKeyRange: a key equal to one of the two int64 sentinels the
	// store reserves.
	ErrKeyRange
	// ErrRetryExhausted: a transaction of the request ran out of the
	// server's retry bound (a sound store stayed unchanged).
	ErrRetryExhausted
	// ErrShuttingDown: the server is draining and rejected new work, or
	// cancelled a request still retrying when its drain deadline passed.
	ErrShuttingDown
	// ErrDurability: the server's write-ahead log failed; mutations are
	// no longer durable and are refused (the sticky condition persists
	// until the server restarts against a healthy log).
	ErrDurability
)

// errNames indexes display names by code.
var errNames = []string{
	"unknown", "frame-too-large", "truncated", "bad-opcode",
	"bad-body", "too-many-keys", "key-range", "retry-exhausted",
	"shutting-down", "durability",
}

// String names the code.
func (c ErrCode) String() string {
	if int(c) < len(errNames) {
		return errNames[c]
	}
	return fmt.Sprintf("err(%d)", uint8(c))
}

// ProtocolError is the typed error of the serving layer: every codec
// failure and every StatusErr response carries one.
type ProtocolError struct {
	Code ErrCode
	Msg  string
}

// Error implements error.
func (e *ProtocolError) Error() string {
	if e.Msg == "" {
		return "wire: " + e.Code.String()
	}
	return "wire: " + e.Code.String() + ": " + e.Msg
}

// perr builds a ProtocolError.
func perr(code ErrCode, msg string) *ProtocolError { return &ProtocolError{Code: code, Msg: msg} }

// Limits of the protocol.
const (
	// HeaderSize is the frame header length (big-endian body size).
	HeaderSize = 4
	// MaxBody is the largest body either side accepts: comfortably above
	// the largest legal frame (an MPut of MaxKeys entries, or an MGet
	// response) while keeping a malicious length prefix from reserving
	// real memory.
	MaxBody = 128 << 10
	// MaxKeys bounds the key count of one MGet/MPut request.
	MaxKeys = 4096
)

// WriteFrame writes one frame (header + body) to w. Bodies beyond
// MaxBody are refused with ErrFrameTooLarge before anything is written.
// Hot paths should prefer BeginFrame/FinishFrame + one Write of the
// caller's persistent buffer: a stack header passed through the
// io.Writer interface escapes, costing one allocation per frame.
func WriteFrame(w io.Writer, body []byte) error {
	if len(body) > MaxBody {
		return perr(ErrFrameTooLarge, fmt.Sprintf("body %d > max %d", len(body), MaxBody))
	}
	var hdr [HeaderSize]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(body)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(body)
	return err
}

// BeginFrame starts an in-buffer frame: it appends a placeholder header
// to dst and returns the extended slice. Append the body, then call
// FinishFrame on the whole slice and write it with a single Write — the
// allocation-free framing of the steady-state request path.
func BeginFrame(dst []byte) []byte {
	return append(dst, 0, 0, 0, 0)
}

// FinishFrame patches the length header of a frame built with
// BeginFrame (frame = header placeholder + body). It fails if the body
// exceeds MaxBody.
func FinishFrame(frame []byte) error {
	if len(frame) < HeaderSize {
		return perr(ErrBadBody, "frame shorter than its header")
	}
	body := len(frame) - HeaderSize
	if body > MaxBody {
		return perr(ErrFrameTooLarge, fmt.Sprintf("body %d > max %d", body, MaxBody))
	}
	binary.BigEndian.PutUint32(frame[:HeaderSize], uint32(body))
	return nil
}

// ReadFrame reads one frame body into buf (growing it as needed) and
// returns the filled slice — pass it back as buf next call to reuse the
// capacity. A clean end of stream at a frame boundary returns io.EOF; a
// stream *ending* inside a frame returns ErrTruncated; an announced
// length beyond max (or MaxBody, whichever is smaller) returns
// ErrFrameTooLarge without consuming the body, so the caller can report
// it and close. Transport errors that are not an end of stream — read
// deadlines, resets — pass through untouched: the peer did nothing
// wrong, so they must not surface as protocol errors.
func ReadFrame(r io.Reader, buf []byte, max int) ([]byte, error) {
	if max <= 0 || max > MaxBody {
		max = MaxBody
	}
	// The header is read into the caller's persistent buffer, not a
	// stack array: a stack slice passed through the io.Reader interface
	// would escape and cost one allocation per frame.
	if cap(buf) < HeaderSize {
		buf = make([]byte, HeaderSize, 512)
	}
	hdr := buf[:HeaderSize]
	if _, err := io.ReadFull(r, hdr); err != nil {
		if err == io.EOF {
			return buf[:0], io.EOF
		}
		if err == io.ErrUnexpectedEOF {
			return buf[:0], perr(ErrTruncated, "stream ended inside frame header")
		}
		return buf[:0], err
	}
	n := int(binary.BigEndian.Uint32(hdr))
	if n > max {
		return buf[:0], perr(ErrFrameTooLarge, fmt.Sprintf("announced body %d > max %d", n, max))
	}
	if cap(buf) < n {
		buf = make([]byte, n)
	}
	buf = buf[:n]
	if _, err := io.ReadFull(r, buf); err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return buf[:0], perr(ErrTruncated, "stream ended inside frame body")
		}
		return buf[:0], err
	}
	return buf, nil
}

// Request is one decoded request. The slices are reused across decodes
// of the same Request value; contents are valid until the next Decode.
type Request struct {
	Op Op
	// Key is the single-op key, and CompareAndMove's source.
	Key int64
	// To is CompareAndMove's destination.
	To int64
	// Val is Put's value and CompareAndMove's expected value.
	Val int64
	// Keys/Vals carry MGet (keys only) and MPut entries.
	Keys []int64
	Vals []int64
}

// AppendRequest appends the encoded body of r to dst and returns the
// extended slice (frame it with WriteFrame). It refuses key counts
// beyond MaxKeys and MPut length mismatches via panic — those are
// programming errors on the sending side, not peer input.
func AppendRequest(dst []byte, r *Request) []byte {
	if len(r.Keys) > MaxKeys {
		panic(fmt.Sprintf("wire: %d keys > MaxKeys %d", len(r.Keys), MaxKeys))
	}
	dst = append(dst, byte(r.Op))
	switch r.Op {
	case OpGet, OpRemove:
		dst = be64(dst, uint64(r.Key))
	case OpPut, OpAdd:
		dst = be64(dst, uint64(r.Key))
		dst = be64(dst, uint64(r.Val))
	case OpCompareAndMove:
		dst = be64(dst, uint64(r.Key))
		dst = be64(dst, uint64(r.To))
		dst = be64(dst, uint64(r.Val))
	case OpMGet:
		dst = be16(dst, uint16(len(r.Keys)))
		for _, k := range r.Keys {
			dst = be64(dst, uint64(k))
		}
	case OpMPut, OpMAdd:
		if len(r.Keys) != len(r.Vals) {
			panic("wire: " + r.Op.String() + " keys/vals length mismatch")
		}
		dst = be16(dst, uint16(len(r.Keys)))
		for i, k := range r.Keys {
			dst = be64(dst, uint64(k))
			dst = be64(dst, uint64(r.Vals[i]))
		}
	case OpStats, OpPing:
		// opcode only
	default:
		panic(fmt.Sprintf("wire: cannot encode unknown opcode %d", r.Op))
	}
	return dst
}

// Decode parses a request body into r, reusing r's slices. Every failure
// is a *ProtocolError.
func (r *Request) Decode(body []byte) error {
	r.Keys, r.Vals = r.Keys[:0], r.Vals[:0]
	r.Key, r.To, r.Val = 0, 0, 0
	if len(body) == 0 {
		return perr(ErrBadBody, "empty body")
	}
	r.Op = Op(body[0])
	b := body[1:]
	switch r.Op {
	case OpGet, OpRemove:
		return r.fixed(b, &r.Key)
	case OpPut, OpAdd:
		return r.fixed(b, &r.Key, &r.Val)
	case OpCompareAndMove:
		return r.fixed(b, &r.Key, &r.To, &r.Val)
	case OpMGet:
		n, b, err := keyCount(b)
		if err != nil {
			return err
		}
		if len(b) != 8*n {
			return perr(ErrBadBody, "mget body length mismatch")
		}
		for i := 0; i < n; i++ {
			r.Keys = append(r.Keys, int64(binary.BigEndian.Uint64(b[8*i:])))
		}
		return nil
	case OpMPut, OpMAdd:
		n, b, err := keyCount(b)
		if err != nil {
			return err
		}
		if len(b) != 16*n {
			return perr(ErrBadBody, "multi-key body length mismatch")
		}
		for i := 0; i < n; i++ {
			r.Keys = append(r.Keys, int64(binary.BigEndian.Uint64(b[16*i:])))
			r.Vals = append(r.Vals, int64(binary.BigEndian.Uint64(b[16*i+8:])))
		}
		return nil
	case OpStats, OpPing:
		if len(b) != 0 {
			return perr(ErrBadBody, "trailing bytes")
		}
		return nil
	default:
		return perr(ErrBadOpcode, r.Op.String())
	}
}

// fixed parses an exact sequence of 8-byte integers.
func (r *Request) fixed(b []byte, out ...*int64) error {
	if len(b) != 8*len(out) {
		return perr(ErrBadBody, "fixed body length mismatch")
	}
	for i, p := range out {
		*p = int64(binary.BigEndian.Uint64(b[8*i:]))
	}
	return nil
}

// keyCount parses the u16 key count of a multi-key request.
func keyCount(b []byte) (int, []byte, error) {
	if len(b) < 2 {
		return 0, nil, perr(ErrBadBody, "missing key count")
	}
	n := int(binary.BigEndian.Uint16(b))
	if n > MaxKeys {
		return 0, nil, perr(ErrTooManyKeys, fmt.Sprintf("%d keys > max %d", n, MaxKeys))
	}
	return n, b[2:], nil
}

// Response is one decoded response. Like Request, slices are reused.
type Response struct {
	Status Status
	// Flag carries Put's "existed", Remove's "removed", and
	// CompareAndMove's "moved".
	Flag bool
	// Val carries Get's and Remove's value.
	Val int64
	// Present/Vals carry MGet results.
	Present []bool
	Vals    []int64
	// Stats carries the raw stats payload (decode with
	// StatsPayload.Decode).
	Stats []byte
	// Err/Msg carry StatusErr details.
	Err ErrCode
	Msg string
}

// AppendError appends an error-response body to dst.
func AppendError(dst []byte, code ErrCode, msg string) []byte {
	if len(msg) > 1<<10 {
		msg = msg[:1<<10]
	}
	dst = append(dst, byte(StatusErr), byte(code))
	dst = be16(dst, uint16(len(msg)))
	return append(dst, msg...)
}

// AppendResponse appends the encoded body of a non-error response for op
// to dst (use AppendError for failures).
func AppendResponse(dst []byte, op Op, r *Response) []byte {
	dst = append(dst, byte(r.Status))
	if r.Status == StatusNotFound {
		return dst
	}
	switch op {
	case OpGet:
		dst = be64(dst, uint64(r.Val))
	case OpPut, OpCompareAndMove:
		dst = appendBool(dst, r.Flag)
	case OpRemove:
		dst = appendBool(dst, r.Flag)
		dst = be64(dst, uint64(r.Val))
	case OpMGet:
		dst = be16(dst, uint16(len(r.Vals)))
		for i, v := range r.Vals {
			dst = appendBool(dst, r.Present[i])
			dst = be64(dst, uint64(v))
		}
	case OpMPut, OpPing, OpAdd, OpMAdd:
		// status only
	case OpStats:
		dst = append(dst, r.Stats...)
	default:
		panic(fmt.Sprintf("wire: cannot encode response for unknown opcode %d", op))
	}
	return dst
}

// Decode parses a response body for a request of opcode op. StatusErr
// responses decode into Err/Msg and also return the equivalent
// *ProtocolError; other malformed bodies return ErrBadBody.
func (r *Response) Decode(op Op, body []byte) error {
	r.Present, r.Vals = r.Present[:0], r.Vals[:0]
	r.Stats = r.Stats[:0]
	r.Flag, r.Val, r.Err, r.Msg = false, 0, ErrUnknown, ""
	if len(body) == 0 {
		return perr(ErrBadBody, "empty response")
	}
	r.Status = Status(body[0])
	b := body[1:]
	switch r.Status {
	case StatusErr:
		if len(b) < 3 {
			return perr(ErrBadBody, "short error response")
		}
		r.Err = ErrCode(b[0])
		n := int(binary.BigEndian.Uint16(b[1:]))
		if len(b) != 3+n {
			return perr(ErrBadBody, "error message length mismatch")
		}
		r.Msg = string(b[3:])
		return perr(r.Err, r.Msg)
	case StatusNotFound:
		if len(b) != 0 {
			return perr(ErrBadBody, "trailing bytes")
		}
		return nil
	case StatusOK:
	default:
		return perr(ErrBadBody, "unknown status")
	}
	switch op {
	case OpGet:
		if len(b) != 8 {
			return perr(ErrBadBody, "get response length mismatch")
		}
		r.Val = int64(binary.BigEndian.Uint64(b))
	case OpPut, OpCompareAndMove:
		if len(b) != 1 || b[0] > 1 {
			return perr(ErrBadBody, "flag response malformed")
		}
		r.Flag = b[0] == 1
	case OpRemove:
		if len(b) != 9 || b[0] > 1 {
			return perr(ErrBadBody, "remove response malformed")
		}
		r.Flag = b[0] == 1
		r.Val = int64(binary.BigEndian.Uint64(b[1:]))
	case OpMGet:
		n, rest, err := keyCount(b)
		if err != nil {
			return err
		}
		if len(rest) != 9*n {
			return perr(ErrBadBody, "mget response length mismatch")
		}
		for i := 0; i < n; i++ {
			if rest[9*i] > 1 {
				return perr(ErrBadBody, "mget presence flag malformed")
			}
			r.Present = append(r.Present, rest[9*i] == 1)
			r.Vals = append(r.Vals, int64(binary.BigEndian.Uint64(rest[9*i+1:])))
		}
	case OpMPut, OpPing, OpAdd, OpMAdd:
		if len(b) != 0 {
			return perr(ErrBadBody, "trailing bytes")
		}
	case OpStats:
		r.Stats = append(r.Stats, b...)
	default:
		return perr(ErrBadOpcode, op.String())
	}
	return nil
}

// IsProtocolError reports whether err is (or wraps) a *ProtocolError,
// returning it.
func IsProtocolError(err error) (*ProtocolError, bool) {
	var pe *ProtocolError
	ok := errors.As(err, &pe)
	return pe, ok
}

// be64/be16/appendBool are the fixed-width append helpers.
func be64(dst []byte, v uint64) []byte { return binary.BigEndian.AppendUint64(dst, v) }
func be16(dst []byte, v uint16) []byte { return binary.BigEndian.AppendUint16(dst, v) }

func appendBool(dst []byte, b bool) []byte {
	if b {
		return append(dst, 1)
	}
	return append(dst, 0)
}
