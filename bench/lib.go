package main

import (
	"fmt"
	"runtime"
	"slices"
	"sync/atomic"
	"syscall"
	"time"

	"oestm"
)

// The library workload is the paper's §VII-A set benchmark at Fig. 6's
// bulk = 15 point: a LinkedListSet holding 2^12 of 2^13 keys, 80 %
// Contains and 20 % updates, 15 points of which are the composed
// AddAll/RemoveAll on two keys {v, about v/2}, driven through the public
// oestm facade.
//
// One departure makes every answer checkable: worker i updates only keys
// congruent to i modulo the worker count (the bulk partner is the key of
// that class nearest v/2), so it knows its keys' membership exactly. The
// workers still traverse and relink one shared list, so their
// transactions conflict as in the paper's uniform setting; only two
// updates of the very same key cannot race.
const (
	libRange = 1 << 13
	libFill  = 1 << 12
)

const (
	libContains = iota
	libAdd
	libRemove
	libAddAll
	libRemoveAll
)

var libOpNames = [...]string{"eec.contains", "eec.add", "eec.remove", "eec.addall", "eec.removeall"}

// libOp is one pre-generated set operation; b is a bulk operation's
// second key.
type libOp struct {
	kind uint8
	a, b uint16
}

// genLibStream pre-generates worker id's operations.
func genLibStream(seed uint64, id, n int) []libOp {
	r := rng{s: mix64(seed) ^ mix64(uint64(id)+1)}
	own := func() uint16 { return uint16(r.intn(libRange/workers)*workers + id) }
	out := make([]libOp, n)
	for i := range out {
		op := &out[i]
		switch p := r.intn(100); {
		case p >= 20:
			op.kind, op.a = libContains, uint16(r.intn(libRange))
		case p < 15:
			op.kind = libAddAll + uint8(r.intn(2))
			op.a = own()
			half := (int(op.a) + 1) / 2
			op.b = uint16(half - half%workers + id)
		default:
			op.kind, op.a = libAdd+uint8(r.intn(2)), own()
		}
	}
	return out
}

// libFilled reports whether key is in the initial set: alternate keys of
// every worker's class, libFill keys in all.
func libFilled(key int) bool { return key/workers%2 == 0 }

// libWorker is one goroutine's closed loop over its pre-generated
// operations, with the membership of the keys it owns.
type libWorker struct {
	recorder
	outcome
	id     int
	th     *oestm.Thread
	set    oestm.Set
	stream []libOp
	pos    int
	mine   []bool // membership of owned keys, indexed by key
	net    int    // successful adds minus successful removes
	pair   [2]int
}

func (lw *libWorker) run(epoch time.Time, stop *atomic.Bool) error {
	last := time.Since(epoch)
	for !stop.Load() {
		op := lw.stream[lw.pos]
		if lw.pos++; lw.pos == len(lw.stream) {
			lw.pos = 0
		}
		lw.attempted++
		if !lw.apply(op) {
			lw.fail(fmt.Sprintf("%s(%d,%d) answered against the worker's own record", libOpNames[op.kind], op.a, op.b))
		}
		now := time.Since(epoch)
		lw.samples = append(lw.samples, sample{end: int64(now), dur: clampNS(now - last)})
		if lw.tr != nil {
			lw.tr.record(libOpNames[op.kind:op.kind+1], []int64{int64(last), int64(now)})
		}
		last = now
	}
	return nil
}

// apply runs op and reports whether the set's answer matches what the
// worker's record of its own keys predicts.
func (lw *libWorker) apply(op libOp) bool {
	a, b := int(op.a), int(op.b)
	set := func(k int, in bool) (changed bool) {
		if changed = lw.mine[k] != in; changed {
			lw.mine[k] = in
			if in {
				lw.net++
			} else {
				lw.net--
			}
		}
		return changed
	}
	lw.pair = [2]int{a, b}
	switch op.kind {
	case libContains:
		got := lw.set.Contains(lw.th, a)
		return a%workers != lw.id || got == lw.mine[a]
	case libAdd:
		return lw.set.Add(lw.th, a) == set(a, true)
	case libRemove:
		return lw.set.Remove(lw.th, a) == set(a, false)
	case libAddAll:
		ca, cb := set(a, true), set(b, true)
		return lw.set.AddAll(lw.th, lw.pair[:]) == (ca || cb)
	default:
		ca, cb := set(a, false), set(b, false)
		return lw.set.RemoveAll(lw.th, lw.pair[:]) == (ca || cb)
	}
}

// libStack is one set-up library workload.
type libStack struct {
	tm      oestm.TM
	set     oestm.Set
	workers []*libWorker
}

// setUpLib builds the engine, fills the set and creates the workers'
// threads.
func setUpLib(streams [][]libOp) (*libStack, time.Duration) {
	t0 := time.Now()
	s := &libStack{tm: oestm.NewOESTM(), set: oestm.NewLinkedListSet()}
	th := oestm.NewThread(s.tm)
	for k := 0; k < libRange; k++ {
		if libFilled(k) {
			s.set.Add(th, k)
		}
	}
	for id := range streams {
		lw := &libWorker{id: id, th: oestm.NewThread(s.tm), set: s.set, stream: streams[id], mine: make([]bool, libRange)}
		for k := id; k < libRange; k += workers {
			lw.mine[k] = libFilled(k)
		}
		s.workers = append(s.workers, lw)
	}
	return s, time.Since(t0)
}

func (s *libStack) loops() []loop {
	ls := make([]loop, len(s.workers))
	for i, lw := range s.workers {
		ls[i] = lw
	}
	return ls
}

// scrapeSelf reads the benchmark process's own CPU time and allocation:
// the library runs in it.
func scrapeSelf(bool) (c counters, err error) {
	if c.cpu, err = selfCPU(); err != nil {
		return c, err
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	c.alloc = ms.TotalAlloc
	return c, nil
}

// selfCPU is the user + system CPU time this process has used.
func selfCPU() (float64, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, err
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds(), nil
}

// verify audits the final set: it must hold exactly the keys the workers
// record as members, and so initial + successful adds - successful
// removes of them. Each key of the range counts as one attempt.
func (s *libStack) verify() (o outcome) {
	th := oestm.NewThread(s.tm)
	var want []int
	net := 0
	for k := 0; k < libRange; k++ {
		if s.workers[k%workers].mine[k] {
			want = append(want, k)
		}
	}
	for _, lw := range s.workers {
		net += lw.net
	}
	o.attempted = libRange
	got := s.set.Elements(th)
	if !slices.Equal(got, want) {
		o.fail(fmt.Sprintf("final set has %d elements, the workers' records have %d, and they differ", len(got), len(want)))
	}
	if size := s.set.Size(th); size != libFill+net {
		o.fail(fmt.Sprintf("final size %d, want %d initial %+d net successful updates", size, libFill, net))
	}
	return o
}

// abortRatio is aborted attempts over all attempts, across the workers'
// threads. Threads are read only once their goroutines have stopped.
func (s *libStack) abortRatio() float64 {
	var commits, aborts uint64
	for _, lw := range s.workers {
		commits += lw.th.Stats.Commits
		aborts += lw.th.Stats.Aborts
	}
	return ratio(float64(aborts), float64(commits+aborts))
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
