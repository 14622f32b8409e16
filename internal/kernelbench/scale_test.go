package kernelbench

import (
	"testing"

	"presto/internal/memory"
	"presto/internal/network"
	"presto/internal/rt"
	"presto/internal/sim"
)

// TestAggCrossGroupGuard pins the aggregation claim as a counter ratio,
// not a wall-clock bound. On a clustered machine whose steady-state
// traffic is bulk data — the write-update push pattern, where each home
// multicasts its block to every remote consumer each iteration —
// node-leader aggregation must cut cross-group messages at least 4x,
// leave final memory byte-identical and conserve every coalesced entry.
// The invalidation-based protocols bound lower on the same pattern:
// their per-sharer MsgInval/ack control traffic is not coalescible.
func TestAggCrossGroupGuard(t *testing.T) {
	const (
		iters     = 16
		minReduce = 4.0
	)
	net, err := network.Preset("cluster:4x8")
	if err != nil {
		t.Fatal(err)
	}
	run := func(agg bool) *rt.Machine {
		m := rt.New(rt.Config{Nodes: 32, BlockSize: 32, Net: net, Protocol: rt.ProtoUpdate, Aggregate: agg})
		if err := m.Run(aggPushProg(m, iters)); err != nil {
			t.Fatal(err)
		}
		return m
	}
	off, on := run(false), run(true)
	if hOff, hOn := off.HashMemory(), on.HashMemory(); hOff != hOn {
		t.Fatalf("aggregation changed final memory: %#x vs %#x", hOff, hOn)
	}
	cOff, cOn := off.Counters(), on.Counters()
	if cOn.AggMsgs == 0 {
		t.Fatal("aggregated run sent no aggregates")
	}
	if cOn.AggEntriesOut != cOn.AggEntriesIn {
		t.Fatalf("aggregation conservation broken: %d out, %d in", cOn.AggEntriesOut, cOn.AggEntriesIn)
	}
	ratio := float64(cOff.CrossMsgs) / float64(cOn.CrossMsgs)
	if ratio < minReduce {
		t.Fatalf("cross-group messages %d -> %d (aggs %d): %.2fx below %.1fx",
			cOff.CrossMsgs, cOn.CrossMsgs, cOn.AggMsgs, ratio, minReduce)
	}
	t.Logf("cross-group messages %d -> %d (aggs %d): %.2fx", cOff.CrossMsgs, cOn.CrossMsgs, cOn.AggMsgs, ratio)
}

// aggPushProg is the write-update steady state: one warm-up round
// registers every node as a sharer of every slot, then each iteration
// has every owner update its slot and multicast it (PushUpdates) to the
// 31 consumers — 24 of them across group boundaries, so each home owes
// three remote groups a bulk every iteration. Consumer reads hit the
// pushed local copies and generate no traffic of their own.
func aggPushProg(m *rt.Machine, iters int) rt.Program {
	n := m.Cfg.Nodes
	arr := m.NewArray1D("push", n, 1, true)
	return func(w *rt.Worker) {
		w.WriteF64(arr.At(w.ID, 0), float64(w.ID))
		w.Barrier()
		for i := 0; i < n; i++ {
			_ = w.ReadF64(arr.At(i, 0)) // register as a sharer everywhere
		}
		w.Barrier()
		own := []memory.Addr{arr.At(w.ID, 0)}
		for it := 0; it < iters; it++ {
			w.Phase(1, func() {
				w.WriteF64(own[0], float64(w.ID+it))
				w.PushUpdates(own)
				w.Compute(5 * sim.Microsecond)
			})
			w.Phase(2, func() {
				s := 0.0
				for i := 0; i < n; i++ {
					s += w.ReadF64(arr.At(i, 0))
				}
				_ = s
				w.Compute(5 * sim.Microsecond)
			})
		}
	}
}
