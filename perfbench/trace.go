package main

import (
	"bufio"
	"fmt"
	"io"
	"time"
)

// layer names one traced call boundary. The replay opens a span around
// each call into a layer's exported function.
type layer uint8

const (
	layerGen        layer = iota // synth.EnumeratePrograms
	layerProgramKey              // canon.ProgramKey
	layerMinBind                 // minimal.Checker.Bind
	layerAdmitBind               // admit.NewChecker and admit.Checker.Bind
	layerEnumerate               // exec.Enumerate
	layerDecide                  // admit.Checker.Decide, inside Enumerate's RFFilter
	layerCheck                   // minimal.Checker.Check, inside Enumerate's visit
	layerKey                     // canon.Key
	layerMerge                   // synth.NewSuite plus the suite ordering
	numLayers
)

var layerNames = [numLayers]string{
	layerGen:        "synth.gen",
	layerProgramKey: "canon.program_key",
	layerMinBind:    "minimal.bind",
	layerAdmitBind:  "admit.bind",
	layerEnumerate:  "exec.enumerate",
	layerDecide:     "admit.decide",
	layerCheck:      "minimal.check",
	layerKey:        "canon.key",
	layerMerge:      "synth.merge",
}

func (l layer) String() string { return layerNames[l] }

// span is one traced call: its layer, its start and end in nanoseconds
// since the tracer started, and the index of the span it ran inside (-1
// for a root).
type span struct {
	start, end int64
	parent     int32
	layer      layer
}

// Spans are stored in fixed-size chunks so a multi-million-span replay
// never copies its history while growing.
const (
	chunkBits = 16
	chunkSize = 1 << chunkBits
)

// tracer keeps every span of a single-goroutine replay in memory. Spans
// nest strictly, so the open span is the parent of the next one begun.
type tracer struct {
	clock  func() int64
	chunks [][]span
	n      int32
	open   int32
}

func newTracer() *tracer {
	base := time.Now()
	return newTracerClock(func() int64 { return int64(time.Since(base)) })
}

// newTracerClock builds a tracer over an explicit clock (tests drive it
// by hand).
func newTracerClock(clock func() int64) *tracer {
	return &tracer{clock: clock, open: -1}
}

func (t *tracer) at(id int32) *span {
	return &t.chunks[id>>chunkBits][id&(chunkSize-1)]
}

// begin opens a span of layer l inside the currently open one.
func (t *tracer) begin(l layer) int32 {
	if int(t.n)>>chunkBits == len(t.chunks) {
		t.chunks = append(t.chunks, make([]span, chunkSize))
	}
	id := t.n
	t.n++
	*t.at(id) = span{parent: t.open, layer: l, start: t.clock()}
	t.open = id
	return id
}

// end closes span id, which must be the innermost open one.
func (t *tracer) end(id int32) {
	s := t.at(id)
	s.end = t.clock()
	t.open = s.parent
}

// each visits every recorded span in begin order.
func (t *tracer) each(fn func(id int32, s span)) {
	for id := int32(0); id < t.n; id++ {
		fn(id, *t.at(id))
	}
}

// selfTimes returns each layer's self time: the summed duration of its
// spans minus the time their child spans cover.
func (t *tracer) selfTimes() [numLayers]int64 {
	var self [numLayers]int64
	t.each(func(_ int32, s span) {
		d := s.end - s.start
		self[s.layer] += d
		if s.parent >= 0 {
			self[t.at(s.parent).layer] -= d
		}
	})
	return self
}

// writeTSV writes every span as one "id layer start_ns end_ns parent"
// line.
func (t *tracer) writeTSV(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, "id\tlayer\tstart_ns\tend_ns\tparent")
	t.each(func(id int32, s span) {
		fmt.Fprintf(bw, "%d\t%s\t%d\t%d\t%d\n", id, s.layer, s.start, s.end, s.parent)
	})
	return bw.Flush()
}
