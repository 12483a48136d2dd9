package main

import (
	"encoding/json"
	"os"
	"time"
)

// span is one timed call into a layer. Spans of one statement share op_id;
// parent names the span whose work this call repeats a part of.
type span struct {
	Name   string `json:"name"`
	Op     int64  `json:"op_id"`
	Parent string `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer records the spans of one client goroutine in memory.
type tracer struct {
	origin time.Time
	spans  []span
}

// span times f as one call into the layer name, on behalf of statement op.
func (t *tracer) span(op int64, name, parent string, f func()) time.Duration {
	start := time.Since(t.origin)
	f()
	end := time.Since(t.origin)
	t.spans = append(t.spans, span{Name: name, Op: op, Parent: parent,
		Start: start.Nanoseconds(), End: end.Nanoseconds()})
	return end - start
}

// layerTimes returns, per span name, one sample per statement of the span's
// duration and of its self time (duration minus the durations of the spans
// naming it as parent), in microseconds. A tracer appends a statement's
// spans contiguously, so one pass groups them.
func layerTimes(spans []span) (dur, self map[string][]float64) {
	dur, self = map[string][]float64{}, map[string][]float64{}
	children := map[string]float64{}
	for lo := 0; lo < len(spans); {
		hi := lo
		for hi < len(spans) && spans[hi].Op == spans[lo].Op {
			hi++
		}
		clear(children)
		for _, s := range spans[lo:hi] {
			children[s.Parent] += float64(s.End-s.Start) / 1e3
		}
		for _, s := range spans[lo:hi] {
			d := float64(s.End-s.Start) / 1e3
			dur[s.Name] = append(dur[s.Name], d)
			self[s.Name] = append(self[s.Name], d-children[s.Name])
		}
		lo = hi
	}
	return dur, self
}

func writeSpans(path string, spans []span) error {
	b, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
