package main

import (
	"bufio"
	"fmt"
	"os"
)

// traceSpan is one timed interval of a traced run. Spans are recorded from the
// benchmark's own files, around the calls into each layer; times are
// nanoseconds since the run began. parent indexes the recording worker's
// buffer (-1 for a root); spans of one burst share req.
type traceSpan struct {
	name       string
	start, end int64
	parent     int32
	req        uint32
}

// tracer is one worker's preallocated span buffer. Once it is full the
// worker keeps timing (the totals come from its samples) but records no
// more spans, so a traced run never allocates for tracing.
type tracer struct {
	spans []traceSpan
	seq   uint32
}

// spansPerWorker bounds the spans kept per worker (and so the size of the
// trace file); totals cover the whole window regardless.
const spansPerWorker = 1 << 14

func newTracer(worker int) *tracer {
	return &tracer{spans: make([]traceSpan, 0, spansPerWorker), seq: uint32(worker) << 24}
}

// record stores one request span and its children, which run back to
// back between the given boundaries: bounds[0] to bounds[1] is the first
// child, and so on.
func (t *tracer) record(children []string, bounds []int64) {
	t.seq++
	if len(t.spans)+1+len(children) > cap(t.spans) {
		return
	}
	root := int32(len(t.spans))
	t.spans = append(t.spans, traceSpan{"request", bounds[0], bounds[len(bounds)-1], -1, t.seq})
	for i, name := range children {
		t.spans = append(t.spans, traceSpan{name, bounds[i], bounds[i+1], root, t.seq})
	}
}

// writeTrace writes the workers' spans as JSON lines. Span ids number
// the file's lines from 0.
func writeTrace(path string, tracers []*tracer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	base := 0
	for _, t := range tracers {
		for i, s := range t.spans {
			parent := -1
			if s.parent >= 0 {
				parent = base + int(s.parent)
			}
			fmt.Fprintf(bw, "{\"id\":%d,\"name\":%q,\"start_ns\":%d,\"end_ns\":%d,\"parent\":%d,\"req\":%d}\n",
				base+i, s.name, s.start, s.end, parent, s.req)
		}
		base += len(t.spans)
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
