package main

import (
	"bufio"
	"fmt"
	"net"
	"time"

	"oestm/internal/wire"
)

// client is the benchmark's own connection to a compose-server, built on
// internal/wire's public functions only. One goroutine owns it.
type client struct {
	nc  net.Conn
	br  *bufio.Reader
	out []byte // encoded requests of the burst being sent

	// The response frames of one burst are read back to back into arena
	// and decoded afterwards, so waiting on the server and decoding are
	// separately timed.
	arena  []byte
	frames [][]byte

	req  wire.Request
	resp wire.Response
}

func dial(addr string) (*client, error) {
	nc, err := net.DialTimeout("tcp", addr, 2*time.Second)
	if err != nil {
		return nil, err
	}
	return &client{
		nc:    nc,
		br:    bufio.NewReaderSize(nc, 64<<10),
		arena: make([]byte, 0, 64<<10),
	}, nil
}

func (c *client) close() { c.nc.Close() }

// send writes the encoded burst in c.out with one write.
func (c *client) send() error {
	_, err := c.nc.Write(c.out)
	return err
}

// recv reads n response frames into c.frames.
func (c *client) recv(n int) error {
	c.frames = c.frames[:0]
	off := 0
	for i := 0; i < n; i++ {
		// A frame that outgrows the arena's tail is allocated by
		// ReadFrame; the slice it returns is kept either way.
		body, err := wire.ReadFrame(c.br, c.arena[off:off], wire.MaxBody)
		if err != nil {
			return err
		}
		if off+len(body) <= cap(c.arena) {
			off += len(body)
		}
		c.frames = append(c.frames, body)
	}
	return nil
}

// do sends c.req alone and decodes its response into c.resp. Set-up and
// verification use it; the measured loop builds bursts itself.
func (c *client) do() error {
	c.out = appendFrame(c.out[:0], &c.req)
	if err := c.send(); err != nil {
		return err
	}
	if err := c.recv(1); err != nil {
		return err
	}
	if err := c.resp.Decode(c.req.Op, c.frames[0]); err != nil {
		return err
	}
	if c.resp.Status != wire.StatusOK && c.req.Op != wire.OpGet {
		return fmt.Errorf("%s: status %d", c.req.Op, c.resp.Status)
	}
	return nil
}

func (c *client) ping() error {
	c.req = wire.Request{Op: wire.OpPing}
	return c.do()
}

// stats fetches the server's merged telemetry.
func (c *client) stats(p *wire.StatsPayload) error {
	c.req = wire.Request{Op: wire.OpStats}
	if err := c.do(); err != nil {
		return err
	}
	return p.Decode(c.resp.Stats)
}

// dumpChunk is the key count of one prefill or dump request.
const dumpChunk = 1024

// prefill stores w's initial keyspace (see workload.prefilled).
func (c *client) prefill(w *workload) error {
	for base := 0; base < w.keys; base += dumpChunk {
		c.req = wire.Request{Op: wire.OpMPut, Keys: c.req.Keys[:0], Vals: c.req.Vals[:0]}
		for k := int64(base); k < int64(base+dumpChunk) && k < int64(w.keys); k++ {
			if w.prefilled(k) {
				c.req.Keys = append(c.req.Keys, k)
				c.req.Vals = append(c.req.Vals, w.initial(k))
			}
		}
		if err := c.do(); err != nil {
			return fmt.Errorf("prefill: %w", err)
		}
	}
	return nil
}

// dump reads the whole keyspace; absent keys are reported as present
// false. Each chunk is one atomic snapshot; the caller has quiesced the
// load, so the chunks together are one too.
func (c *client) dump(w *workload) (vals []int64, present []bool, err error) {
	for base := 0; base < w.keys; base += dumpChunk {
		c.req = wire.Request{Op: wire.OpMGet, Keys: c.req.Keys[:0]}
		for k := base; k < base+dumpChunk && k < w.keys; k++ {
			c.req.Keys = append(c.req.Keys, int64(k))
		}
		if err := c.do(); err != nil {
			return nil, nil, fmt.Errorf("dump: %w", err)
		}
		if len(c.resp.Vals) != len(c.req.Keys) {
			return nil, nil, fmt.Errorf("dump: %d values for %d keys", len(c.resp.Vals), len(c.req.Keys))
		}
		vals = append(vals, c.resp.Vals...)
		present = append(present, c.resp.Present...)
	}
	return vals, present, nil
}
