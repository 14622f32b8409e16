package main

import "time"

// span is one timed call into a layer, recorded by the benchmark around the
// call (the program itself is not instrumented).
type span struct {
	Name string `json:"name"`
	// StartNS and EndNS are Unix nanoseconds.
	StartNS int64 `json:"start_ns"`
	EndNS   int64 `json:"end_ns"`
	// Parent indexes the enclosing span within the same pass, -1 for none.
	Parent int `json:"parent"`
	Pass   int `json:"pass"`
}

// spanRecorder keeps a pass's spans in memory. A nil recorder records
// nothing, which is how untraced passes run.
type spanRecorder struct {
	pass  int
	spans []span
	open  []int
}

// begin opens a span and returns the function that closes it.
func (r *spanRecorder) begin(name string) func() {
	if r == nil {
		return func() {}
	}
	parent := -1
	if n := len(r.open); n > 0 {
		parent = r.open[n-1]
	}
	i := len(r.spans)
	r.spans = append(r.spans, span{Name: name, StartNS: time.Now().UnixNano(), Parent: parent, Pass: r.pass})
	r.open = append(r.open, i)
	return func() {
		r.spans[i].EndNS = time.Now().UnixNano()
		r.open = r.open[:len(r.open)-1]
	}
}

func (r *spanRecorder) done() []span {
	if r == nil {
		return nil
	}
	return r.spans
}

// selfSeconds sums, per span name, the spans' self time: duration minus the
// part their direct children cover. Children of one span never overlap here
// (a pass is sequential), so that part is the children's summed duration.
func selfSeconds(spans []span) map[string]float64 {
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] += s.EndNS - s.StartNS
		if s.Parent >= 0 {
			self[s.Parent] -= s.EndNS - s.StartNS
		}
	}
	out := map[string]float64{}
	for i, s := range spans {
		out[s.Name] += float64(self[i]) / 1e9
	}
	return out
}
