// Package trace records structured protocol events. The runtime attaches
// a Sink to every node of a machine; events flow to one or more pluggable
// backends: a bounded in-memory Ring (debugging and test assertions), a
// JSONL stream writer, and a Chrome trace_event exporter (chrome://tracing
// / Perfetto) that renders each simulated node's compute and protocol
// processor as a timeline track with phase spans and message-flow arrows.
//
// Virtual time is deterministic, so identical configurations produce
// byte-identical trace output from the stream backends.
package trace

import (
	"fmt"
	"strings"

	"presto/internal/sim"
)

// Kind classifies a traced event.
type Kind uint8

const (
	// Send is a message injected into the interconnect.
	Send Kind = iota
	// Recv is a message dispatched by a protocol processor.
	Recv
	// Fault is an access fault vectored on a compute processor.
	Fault
	// Note is a free-form protocol annotation.
	Note
	// PhaseBegin marks a compute processor entering a parallel phase.
	PhaseBegin
	// PhaseEnd marks a compute processor leaving a parallel phase.
	PhaseEnd
)

func (k Kind) String() string {
	switch k {
	case Send:
		return "send"
	case Recv:
		return "recv"
	case Fault:
		return "fault"
	case Note:
		return "note"
	case PhaseBegin:
		return "phase-begin"
	case PhaseEnd:
		return "phase-end"
	}
	return "?"
}

// ProcID identifies which of a node's two processors emitted an event.
type ProcID uint8

const (
	// ProcCompute is the node's compute processor.
	ProcCompute ProcID = iota
	// ProcProto is the node's protocol processor.
	ProcProto
)

func (p ProcID) String() string {
	if p == ProcProto {
		return "protocol"
	}
	return "compute"
}

// Event is one traced protocol event.
type Event struct {
	At   sim.Time
	Node int
	Proc ProcID
	Kind Kind
	// Phase is the compute processor's current parallel phase (-1 when
	// outside any phase or unknown).
	Phase int
	// Iter is the phase's iteration index (0-based; meaningful only when
	// Phase >= 0).
	Iter int
	// Flow links a Send event to the Recv event that dispatches the same
	// message (0 when unlinked).
	Flow int64
	What string
}

func (e Event) String() string {
	return fmt.Sprintf("%12v n%-2d %-5s %s", e.At, e.Node, e.Kind, e.What)
}

// Sink receives traced events. Record must not retain e.What aliases
// beyond the call unless the backend copies (Event is value-copied, so
// this holds automatically).
type Sink interface {
	Record(e Event)
}

// Ring is a bounded event log shared by all nodes of one machine: the
// cheapest backend, retaining the most recent events for post-mortem
// dumps and invariant-violation context.
type Ring struct {
	buf   []Event
	next  int
	total int64
}

// NewRing returns a ring holding the last cap events (cap <= 0 selects
// the default capacity of 256).
func NewRing(cap int) *Ring {
	if cap <= 0 {
		cap = 256
	}
	return &Ring{buf: make([]Event, 0, cap)}
}

// Record implements Sink.
func (r *Ring) Record(e Event) {
	if len(r.buf) < cap(r.buf) {
		r.buf = append(r.buf, e)
	} else {
		r.buf[r.next] = e
		r.next = (r.next + 1) % cap(r.buf)
	}
	r.total++
}

// Add appends a formatted event (convenience wrapper over Record with no
// phase/flow attribution).
func (r *Ring) Add(at sim.Time, node int, kind Kind, format string, args ...any) {
	r.Record(Event{At: at, Node: node, Kind: kind, Phase: -1, What: fmt.Sprintf(format, args...)})
}

// Total reports how many events have been recorded overall (including
// evicted ones).
func (r *Ring) Total() int64 { return r.total }

// Reset empties the ring for reuse across runs, keeping its capacity.
func (r *Ring) Reset() {
	r.buf = r.buf[:0]
	r.next = 0
	r.total = 0
}

// Events returns the retained events, oldest first.
func (r *Ring) Events() []Event {
	if len(r.buf) < cap(r.buf) {
		return append([]Event(nil), r.buf...)
	}
	out := make([]Event, 0, len(r.buf))
	out = append(out, r.buf[r.next:]...)
	out = append(out, r.buf[:r.next]...)
	return out
}

// EventsFor returns the retained events involving any of the given nodes,
// oldest first, capped to the most recent max (max <= 0 means all).
func (r *Ring) EventsFor(nodes []int, max int) []Event {
	want := func(id int) bool {
		for _, n := range nodes {
			if n == id {
				return true
			}
		}
		return false
	}
	var out []Event
	for _, e := range r.Events() {
		if want(e.Node) {
			out = append(out, e)
		}
	}
	if max > 0 && len(out) > max {
		out = out[len(out)-max:]
	}
	return out
}

// Dump renders the retained events as one string.
func (r *Ring) Dump() string {
	var b strings.Builder
	for _, e := range r.Events() {
		b.WriteString(e.String())
		b.WriteByte('\n')
	}
	return b.String()
}
