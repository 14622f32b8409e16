// Package check verifies coherence-protocol invariants over a quiescent
// machine (typically after a run, when all transactions have drained).
// It is the repository's protocol oracle: the write-invalidate protocols
// (Stache and the predictive protocol) must satisfy single-writer,
// tag/directory agreement, and value coherence at quiescence. The
// write-update baseline intentionally violates value coherence (stale
// read-only copies between pushes), so the checker exempts it.
package check

import (
	"bytes"
	"fmt"

	"presto/internal/memory"
	"presto/internal/rt"
	"presto/internal/tempest"
	"presto/internal/trace"
)

// violationEvents caps the trace context attached to each violation.
const violationEvents = 16

// Violation describes one invariant failure.
type Violation struct {
	Block memory.Block
	Home  int
	Msg   string
	// Events holds the last traced protocol events involving the block's
	// home node and any implicated remote nodes (populated when the
	// machine ran with a trace ring attached).
	Events []trace.Event
}

func (v Violation) String() string {
	s := fmt.Sprintf("block %#x (home %d): %s", uint64(v.Block), v.Home, v.Msg)
	if len(v.Events) > 0 {
		var b bytes.Buffer
		b.WriteString(s)
		fmt.Fprintf(&b, "\n  last %d trace events for implicated nodes:", len(v.Events))
		for _, e := range v.Events {
			fmt.Fprintf(&b, "\n    %v", e)
		}
		return b.String()
	}
	return s
}

// Machine audits every materialized directory entry of a finished
// machine and returns all invariant violations found. When the machine
// ran with a trace ring, each violation carries the tail of the protocol
// event log for the offending block's home and implicated remote nodes.
func Machine(m *rt.Machine) []Violation {
	var out []Violation
	valueCheck := m.Cfg.Protocol != rt.ProtoUpdate
	for _, home := range m.Nodes {
		home.Dir.ForEach(func(b memory.Block, e *tempest.DirEntry) {
			vs := auditEntry(m, home, b, e, valueCheck)
			if len(vs) > 0 && m.Ring != nil {
				nodes := implicatedNodes(home.ID, e)
				evs := m.Ring.EventsFor(nodes, violationEvents)
				for i := range vs {
					vs[i].Events = evs
				}
			}
			out = append(out, vs...)
		})
	}
	return out
}

// implicatedNodes lists the nodes whose trace history explains a
// violation on this entry: the home, the exclusive owner, and any
// recorded sharers.
func implicatedNodes(home int, e *tempest.DirEntry) []int {
	nodes := []int{home}
	if e.State == tempest.DirRemoteExcl && e.Owner >= 0 && e.Owner != home {
		nodes = append(nodes, e.Owner)
	}
	e.Sharers.ForEach(func(id int) {
		if id != home {
			nodes = append(nodes, id)
		}
	})
	return nodes
}

func auditEntry(m *rt.Machine, home *tempest.Node, b memory.Block, e *tempest.DirEntry, valueCheck bool) []Violation {
	var out []Violation
	add := func(format string, args ...any) {
		out = append(out, Violation{Block: b, Home: home.ID, Msg: fmt.Sprintf(format, args...)})
	}

	if e.State == tempest.DirAwaitAcks || e.State == tempest.DirAwaitWB {
		add("transient state %v at quiescence", e.State)
		return out
	}
	if e.PendingLen() > 0 {
		add("%d pending requests at quiescence", e.PendingLen())
	}

	// Peek, not Line: the audit must not materialize the blocks it reads.
	tagOf := func(n *tempest.Node) memory.Tag {
		tag, _ := n.Store.Peek(b)
		return tag
	}

	switch e.State {
	case tempest.DirHome:
		homeTag := tagOf(home)
		if homeTag == memory.Invalid {
			add("home copy invalid in DirHome")
		}
		if !e.Sharers.Empty() && homeTag == memory.ReadWrite && valueCheck {
			add("home writable while %d sharers hold copies", e.Sharers.Count())
		}
		_, homeData := home.Store.Peek(b)
		for _, n := range m.Nodes {
			if n.ID == home.ID {
				continue
			}
			t := tagOf(n)
			if e.Sharers.Has(n.ID) {
				if t != memory.ReadOnly {
					add("sharer %d has tag %v, want ReadOnly", n.ID, t)
				}
				if valueCheck && homeData != nil {
					if _, data := n.Store.Peek(b); data != nil && !bytes.Equal(data, homeData) {
						add("sharer %d data diverges from home copy", n.ID)
					}
				}
			} else if t != memory.Invalid {
				add("non-sharer %d has tag %v", n.ID, t)
			}
		}
	case tempest.DirRemoteExcl:
		if e.Owner < 0 || e.Owner >= len(m.Nodes) {
			add("bad owner %d", e.Owner)
			return out
		}
		if !e.Sharers.Empty() {
			add("sharers %v alongside exclusive owner %d", e.Sharers, e.Owner)
		}
		for _, n := range m.Nodes {
			t := tagOf(n)
			switch {
			case n.ID == e.Owner:
				if t != memory.ReadWrite {
					add("owner %d has tag %v, want ReadWrite", n.ID, t)
				}
			default:
				if t != memory.Invalid {
					add("node %d has tag %v while %d owns exclusively", n.ID, t, e.Owner)
				}
			}
		}
	}
	return out
}

// Accounting audits the machine's pre-send bookkeeping at quiescence and
// returns human-readable violations. Two exact identities must hold for
// the write-invalidate protocols:
//
//  1. per node: presends installed == hits + stale + raced +
//     still-unconsumed (every installed pre-send is eventually consumed,
//     invalidated, noted as racing a fault, or left fresh — none may
//     vanish), and
//  2. machine-wide: pre-sends sent from homes == pre-sends installed at
//     consumers (remote grants only; the pre-send walk never sends to
//     itself).
//
// With node-leader aggregation (rt.Config.Aggregate) a third exact
// identity binds machine-wide: every bulk entry coalesced into a
// leader-to-leader aggregate must be redistributed by a group leader
// (AggEntriesOut == AggEntriesIn), and no node may hold buffered
// entries at quiescence. A lost entry never corrupts memory, but it is
// not always self-healing either: on the pre-send path the home
// registers the consumer as a sharer before the data travels, so a
// dropped entry makes the home treat the consumer's refetch as already
// in flight and the run deadlocks. Whichever way a loss manifests —
// wedged run or completed run with a counter gap — this conservation
// check plus the run error is what catches an aggregate dropping data,
// not the memory hash.
//
// The identities are trivially zero for non-predictive protocols (and
// unaggregated machines), so the audit is safe to run on any machine.
func Accounting(m *rt.Machine) []string {
	var out []string
	var sent, installed int64
	var aggOut, aggIn int64
	for _, n := range m.Nodes {
		aggOut += n.Stats.AggEntriesOut
		aggIn += n.Stats.AggEntriesIn
		if pend := n.AggPending(); pend != 0 {
			out = append(out, fmt.Sprintf(
				"node %d: %d bulk entries still buffered in the aggregation layer at quiescence", n.ID, pend))
		}
	}
	if aggOut != aggIn {
		out = append(out, fmt.Sprintf(
			"machine: aggregation conservation broken: %d entries coalesced, %d redistributed", aggOut, aggIn))
	}
	for _, n := range m.Nodes {
		in := n.Met.PresendsIn.Value()
		hits := n.Met.PresendHits.Value()
		stale := n.Met.PresendsStale.Value()
		raced := n.Met.PresendsRaced.Value()
		fresh := int64(n.PresendFreshCount())
		if in != hits+stale+raced+fresh {
			out = append(out, fmt.Sprintf(
				"node %d: presend accounting broken: in %d != hits %d + stale %d + raced %d + fresh %d",
				n.ID, in, hits, stale, raced, fresh))
		}
		sent += n.Stats.PresendsSent
		installed += in
	}
	// A full schedule flush (FlushSchedules(-1)) zeroes the installed-side
	// counters but not the cumulative sent counter, so the machine-wide
	// identity only binds when no flush happened; flushes make it a <=.
	if installed > sent {
		out = append(out, fmt.Sprintf(
			"machine: %d presends installed exceed %d sent", installed, sent))
	}
	return out
}

// Report renders violations, or "ok" when empty.
func Report(vs []Violation) string {
	if len(vs) == 0 {
		return "ok"
	}
	var b bytes.Buffer
	for _, v := range vs {
		fmt.Fprintln(&b, v)
	}
	return b.String()
}
