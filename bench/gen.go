package main

import (
	"math"
	"math/bits"
	"sort"

	"oestm/internal/wire"
)

// The generator is the benchmark's own (PRNG, zipfian, mixes), so edits to
// internal/harness or internal/workload cannot shift the load.

// rng is splitmix64.
type rng struct{ s uint64 }

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	return mix64(r.s)
}

// intn draws uniformly from [0, n).
func (r *rng) intn(n int) int {
	hi, _ := bits.Mul64(r.next(), uint64(n))
	return int(hi)
}

// float draws uniformly from [0, 1).
func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

func mix64(z uint64) uint64 {
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

// zipf draws ranks in [0, n) with P(rank i) proportional to 1/(i+1)^theta,
// by inverting the exact cumulative distribution.
type zipf struct{ cdf []float64 }

func newZipf(n int, theta float64) *zipf {
	cdf := make([]float64, n)
	var sum float64
	for i := range cdf {
		sum += 1 / math.Pow(float64(i+1), theta)
		cdf[i] = sum
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	return &zipf{cdf}
}

func (z *zipf) draw(r *rng) int {
	i := sort.SearchFloat64s(z.cdf, r.float())
	if i == len(z.cdf) {
		i--
	}
	return i
}

// reqDesc is one pre-generated request in compact form; expand rebuilds
// the wire.Request. key is the (first) key; aux is CompareAndMove's
// destination or the seed of an add's deltas.
type reqDesc struct {
	op  wire.Op
	key uint32
	aux uint32
}

// genStream pre-generates connection conn's request stream for w: the
// same (workload, seed, conn) always gives the same stream.
func genStream(w *workload, seed uint64, conn, n int) []reqDesc {
	r := rng{s: mix64(seed) ^ mix64(uint64(conn)+1)}
	var z *zipf
	if w.theta > 0 {
		z = newZipf(w.keys, w.theta)
	}
	key := func() uint32 {
		if z != nil {
			return uint32(z.draw(&r))
		}
		return uint32(r.intn(w.keys))
	}
	out := make([]reqDesc, n)
	for i := range out {
		p := r.intn(100)
		d := &out[i]
		for _, m := range w.mix {
			if p < m.pct {
				d.op = m.op
				break
			}
			p -= m.pct
		}
		d.key = key()
		switch d.op {
		case wire.OpCompareAndMove:
			d.aux = key()
			if d.aux == d.key {
				d.aux = (d.aux + 1) % uint32(w.keys)
			}
		case wire.OpAdd, wire.OpMAdd:
			d.aux = uint32(r.next())
		}
	}
	return out
}

// presentShare is the share of the keyspace that holds a value once w's
// puts and removes balance: a key is stored by puts (and each of an MPut's
// span keys) and dropped by removes in proportion to the mix, and a
// CompareAndMove only relocates. Prefilling exactly that share starts the
// store where the traffic would take it anyway, so inserts of absent keys
// — which allocate a node where an overwrite does not — are as frequent
// in the first second as in the last.
func (w *workload) presentShare() float64 {
	var put, remove int
	for _, m := range w.mix {
		switch m.op {
		case wire.OpPut:
			put += m.pct
		case wire.OpMPut:
			put += span * m.pct
		case wire.OpRemove:
			remove += m.pct
		}
	}
	if remove == 0 {
		return 1
	}
	return float64(put) / float64(put+remove)
}

// prefilled reports whether set-up stores key: a fixed pseudo-random
// presentShare of the keyspace.
func (w *workload) prefilled(key int64) bool {
	return float64(mix64(^uint64(key))%1024) < 1024*w.presentShare()
}

// initial is the value set-up stores under a prefilled key.
func (w *workload) initial(key int64) int64 {
	if w.counters {
		return 0
	}
	return valueOf(key)
}

// valueOf is the value every absolute write stores under key, so a
// CompareAndMove can name the value it expects and a read can check what
// it got. Values lie in [256, 2^20): above the range Go's runtime boxes
// without allocating, like real values would.
func valueOf(key int64) int64 { return int64(mix64(uint64(key))&0xfffff | 0x100) }

// validValue reports whether v is some key's valueOf.
func validValue(v int64) bool { return v >= 0x100 && v <= 0xfffff }

// expand rebuilds d's request into q, reusing q's slices. Multi-key
// requests cover span consecutive keys (wrapping); an MAdd's deltas
// alternate +m, -m and so sum to zero.
func (w *workload) expand(d reqDesc, q *wire.Request) {
	q.Op, q.Key, q.To, q.Val = d.op, int64(d.key), 0, 0
	q.Keys, q.Vals = q.Keys[:0], q.Vals[:0]
	switch d.op {
	case wire.OpPut:
		q.Val = valueOf(q.Key)
	case wire.OpCompareAndMove:
		q.To, q.Val = int64(d.aux), valueOf(q.Key)
	case wire.OpAdd:
		q.Val = int64(d.aux%201) - 100
	case wire.OpMGet, wire.OpMPut, wire.OpMAdd:
		m := int64(d.aux%100) + 1
		for i := 0; i < span; i++ {
			k := (q.Key + int64(i)) % int64(w.keys)
			q.Keys = append(q.Keys, k)
			switch d.op {
			case wire.OpMPut:
				q.Vals = append(q.Vals, valueOf(k))
			case wire.OpMAdd:
				q.Vals = append(q.Vals, m)
				m = -m
			}
		}
	}
}

// appendFrame appends q's framed encoding to dst.
func appendFrame(dst []byte, q *wire.Request) []byte {
	start := len(dst)
	dst = wire.AppendRequest(wire.BeginFrame(dst), q)
	if err := wire.FinishFrame(dst[start:]); err != nil {
		panic(err) // the generator builds no frame near the limit
	}
	return dst
}
