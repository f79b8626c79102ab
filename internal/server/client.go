package server

import (
	"bufio"
	"net"
	"time"

	"oestm/internal/wire"
)

// Client is a connection to a compose-server: a thin, reusable-buffer
// wrapper over the wire protocol. A Client is owned by one goroutine (the
// closed-loop load generator runs one per worker); methods issue one
// request and block for its response, except Pipeline, which issues a
// whole burst and blocks for all of its responses.
//
// Slice results (MGet) point into the client's reusable buffers and are
// valid until the next call.
type Client struct {
	nc   net.Conn
	br   *bufio.Reader
	bw   *bufio.Writer
	req  wire.Request
	resp wire.Response
	out  []byte // request-encode buffer
	in   []byte // frame-read buffer
}

// Dial connects to a compose-server.
func Dial(addr string) (*Client, error) {
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return NewClient(nc), nil
}

// DialTimeout is Dial with a connect timeout.
func DialTimeout(addr string, d time.Duration) (*Client, error) {
	nc, err := net.DialTimeout("tcp", addr, d)
	if err != nil {
		return nil, err
	}
	return NewClient(nc), nil
}

// NewClient wraps an established connection.
func NewClient(nc net.Conn) *Client {
	return &Client{
		nc: nc,
		br: bufio.NewReaderSize(nc, 32<<10),
		bw: bufio.NewWriterSize(nc, 32<<10),
	}
}

// Close closes the connection.
func (c *Client) Close() error { return c.nc.Close() }

// roundTrip sends c.req and decodes the response into c.resp.
func (c *Client) roundTrip() error {
	c.out = wire.AppendRequest(wire.BeginFrame(c.out[:0]), &c.req)
	if err := wire.FinishFrame(c.out); err != nil {
		return err
	}
	if _, err := c.bw.Write(c.out); err != nil {
		return err
	}
	if err := c.bw.Flush(); err != nil {
		return err
	}
	body, err := wire.ReadFrame(c.br, c.in[:0], wire.MaxBody)
	c.in = body[:cap(body)]
	if err != nil {
		return err
	}
	return c.resp.Decode(c.req.Op, body)
}

// Pipeline issues reqs as one pipelined burst: every request is written
// and flushed before any response is read, and the i'th response is
// decoded into resps[i] (len(resps) must equal len(reqs); each Response
// value's slices are reused across calls). The server serves the burst
// in order and answers it in request order.
//
// The burst is encoded whole before anything is written, so a request
// that cannot be framed fails the call with nothing sent; and every
// response is read before Pipeline returns, so the connection stays in
// sync for the next call whatever the outcome. A response that decodes
// to an error (a typed StatusErr, or a malformed body) is that request's
// outcome: it stays in its slot (Status, Err, Msg) and the rest of the
// burst is still decoded; the first such error is returned once the
// burst is consumed. Transport and framing errors return at once — the
// stream is unusable after them anyway.
func (c *Client) Pipeline(reqs []wire.Request, resps []wire.Response) error {
	if len(reqs) != len(resps) {
		panic("server: Pipeline reqs/resps length mismatch")
	}
	c.out = c.out[:0]
	for i := range reqs {
		start := len(c.out)
		c.out = wire.AppendRequest(wire.BeginFrame(c.out), &reqs[i])
		if err := wire.FinishFrame(c.out[start:]); err != nil {
			return err
		}
	}
	if _, err := c.bw.Write(c.out); err != nil {
		return err
	}
	if err := c.bw.Flush(); err != nil {
		return err
	}
	var first error
	for i := range reqs {
		body, err := wire.ReadFrame(c.br, c.in[:0], wire.MaxBody)
		c.in = body[:cap(body)]
		if err != nil {
			return err
		}
		if err := resps[i].Decode(reqs[i].Op, body); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Get returns the value under key and whether it is present.
func (c *Client) Get(key int64) (int64, bool, error) {
	c.req = wire.Request{Op: wire.OpGet, Key: key, Keys: c.req.Keys[:0], Vals: c.req.Vals[:0]}
	if err := c.roundTrip(); err != nil {
		return 0, false, err
	}
	return c.resp.Val, c.resp.Status == wire.StatusOK, nil
}

// Put stores val under key, reporting whether the key already existed.
func (c *Client) Put(key, val int64) (bool, error) {
	c.req = wire.Request{Op: wire.OpPut, Key: key, Val: val, Keys: c.req.Keys[:0], Vals: c.req.Vals[:0]}
	if err := c.roundTrip(); err != nil {
		return false, err
	}
	return c.resp.Flag, nil
}

// Remove deletes key, returning the removed value and whether the key
// was present.
func (c *Client) Remove(key int64) (int64, bool, error) {
	c.req = wire.Request{Op: wire.OpRemove, Key: key, Keys: c.req.Keys[:0], Vals: c.req.Vals[:0]}
	if err := c.roundTrip(); err != nil {
		return 0, false, err
	}
	return c.resp.Val, c.resp.Flag, nil
}

// CompareAndMove relocates the value under from to to iff it equals
// expect and to is absent, reporting whether the move happened.
func (c *Client) CompareAndMove(from, to, expect int64) (bool, error) {
	c.req = wire.Request{Op: wire.OpCompareAndMove, Key: from, To: to, Val: expect, Keys: c.req.Keys[:0], Vals: c.req.Vals[:0]}
	if err := c.roundTrip(); err != nil {
		return false, err
	}
	return c.resp.Flag, nil
}

// MGet reads keys as one atomic snapshot. The returned slices are the
// client's buffers, valid until the next call.
func (c *Client) MGet(keys []int64) (vals []int64, present []bool, err error) {
	c.req.Op = wire.OpMGet
	c.req.Keys = append(c.req.Keys[:0], keys...)
	c.req.Vals = c.req.Vals[:0]
	if err := c.roundTrip(); err != nil {
		return nil, nil, err
	}
	return c.resp.Vals, c.resp.Present, nil
}

// MPut stores vals[i] under keys[i] as one transaction.
func (c *Client) MPut(keys, vals []int64) error {
	c.req.Op = wire.OpMPut
	c.req.Keys = append(c.req.Keys[:0], keys...)
	c.req.Vals = append(c.req.Vals[:0], vals...)
	return c.roundTrip()
}

// Add applies one integer delta to key's value, creating the key from
// zero when absent.
func (c *Client) Add(key, delta int64) error {
	c.req = wire.Request{Op: wire.OpAdd, Key: key, Val: delta, Keys: c.req.Keys[:0], Vals: c.req.Vals[:0]}
	return c.roundTrip()
}

// MAdd applies deltas[i] to keys[i] as one atomic cross-shard
// composition.
func (c *Client) MAdd(keys, deltas []int64) error {
	c.req.Op = wire.OpMAdd
	c.req.Keys = append(c.req.Keys[:0], keys...)
	c.req.Vals = append(c.req.Vals[:0], deltas...)
	return c.roundTrip()
}

// Stats fetches the server's merged telemetry into p.
func (c *Client) Stats(p *wire.StatsPayload) error {
	c.req = wire.Request{Op: wire.OpStats, Keys: c.req.Keys[:0], Vals: c.req.Vals[:0]}
	if err := c.roundTrip(); err != nil {
		return err
	}
	return p.Decode(c.resp.Stats)
}

// Ping round-trips a no-op request.
func (c *Client) Ping() error {
	c.req = wire.Request{Op: wire.OpPing, Keys: c.req.Keys[:0], Vals: c.req.Vals[:0]}
	return c.roundTrip()
}
