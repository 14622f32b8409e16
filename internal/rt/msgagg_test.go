// Node-leader message aggregation tests: memory invariance, coalesced-
// entry conservation, cross-group traffic reduction and engine identity.
package rt_test

import (
	"bytes"
	"encoding/json"
	"testing"

	"presto/internal/check"
	"presto/internal/memory"
	"presto/internal/network"
	"presto/internal/rt"
	"presto/internal/sim"
)

// broadcastProg alternates a write phase (every node updates its own
// slot) with a read phase (every node reads all slots). Under the
// predictive protocol each home's read-phase schedule lists every other
// node as a reader, so the pre-send walk owes one bulk to each of the
// other nodes — several per remote cluster group, exactly the traffic
// shape node-leader aggregation coalesces.
func broadcastProg(m *rt.Machine, iters int) rt.Program {
	n := m.Cfg.Nodes
	arr := m.NewArray1D("bcast", n, 1, true)
	return func(w *rt.Worker) {
		w.WriteF64(arr.At(w.ID, 0), float64(w.ID+1))
		w.Barrier()
		s := 0.0
		for it := 0; it < iters; it++ {
			// Phase 1 writes only, phase 2 reads only: the read phase's
			// schedule stays conflict-free, so every home pre-sends its
			// slot to all the other nodes.
			w.Phase(1, func() {
				w.WriteF64(arr.At(w.ID, 0), float64(w.ID+it)+s/float64(n))
				w.Compute(5 * sim.Microsecond)
			})
			w.Phase(2, func() {
				s = 0
				for i := 0; i < n; i++ {
					s += w.ReadF64(arr.At(i, 0))
				}
				w.Compute(5 * sim.Microsecond)
			})
		}
	}
}

// gatherProg exercises the inspector-executor path: every node gathers
// every other node's slot in one step, so each home answers a burst of
// 31 MsgGetBulk requests — its replies to one remote group coalesce via
// the protocol loop's idle flush.
func gatherProg(m *rt.Machine, iters int) rt.Program {
	n := m.Cfg.Nodes
	arr := m.NewArray1D("gath", n, 1, true)
	return func(w *rt.Worker) {
		w.WriteF64(arr.At(w.ID, 0), float64(w.ID+1))
		w.Barrier()
		for it := 0; it < iters; it++ {
			addrs := make([]memory.Addr, 0, n)
			for i := 0; i < n; i++ {
				addrs = append(addrs, arr.At(i, 0))
			}
			w.Gather(addrs)
			s := 0.0
			for i := 0; i < n; i++ {
				s += w.ReadF64(arr.At(i, 0))
			}
			w.Compute(5 * sim.Microsecond)
			w.Barrier()
			w.WriteF64(arr.At(w.ID, 0), s+float64(w.ID))
			w.Barrier()
		}
	}
}

func runAgg(t *testing.T, cfg rt.Config, prog func(*rt.Machine, int) rt.Program, iters int) *rt.Machine {
	t.Helper()
	m := rt.New(cfg)
	if err := m.Run(prog(m, iters)); err != nil {
		t.Fatalf("run (%+v): %v", cfg, err)
	}
	return m
}

// TestAggregationPredictive pins the tentpole contract on the pre-send
// path: with aggregation on, final memory is byte-identical, every
// coalesced entry is conserved, and cross-group message traffic drops.
func TestAggregationPredictive(t *testing.T) {
	net, err := network.Preset("cluster:4x8")
	if err != nil {
		t.Fatal(err)
	}
	base := rt.Config{Nodes: 32, BlockSize: 32, Net: net, Protocol: rt.ProtoPredictive}
	off := runAgg(t, base, broadcastProg, 4)
	on := runAgg(t, func() rt.Config { c := base; c.Aggregate = true; return c }(), broadcastProg, 4)

	if hOff, hOn := off.HashMemory(), on.HashMemory(); hOff != hOn {
		t.Fatalf("memory hash diverges: off %#x, on %#x", hOff, hOn)
	}
	cOff, cOn := off.Counters(), on.Counters()
	if cOff.AggMsgs != 0 || cOff.AggEntriesOut != 0 {
		t.Fatalf("unaggregated run shows aggregation traffic: %+v", cOff)
	}
	if cOn.AggMsgs == 0 {
		t.Fatal("aggregated run sent no aggregates (workload not exercising the layer)")
	}
	if cOn.AggEntriesOut != cOn.AggEntriesIn {
		t.Fatalf("conservation broken: %d out, %d in", cOn.AggEntriesOut, cOn.AggEntriesIn)
	}
	if cOn.CrossMsgs >= cOff.CrossMsgs {
		t.Fatalf("aggregation did not reduce cross-group messages: %d -> %d", cOff.CrossMsgs, cOn.CrossMsgs)
	}
	for _, m := range []*rt.Machine{off, on} {
		if vs := check.Machine(m); len(vs) != 0 {
			t.Fatalf("coherence violations: %v", vs)
		}
		if vs := check.Accounting(m); len(vs) != 0 {
			t.Fatalf("accounting violations: %v", vs)
		}
	}
}

// TestAggregationGatherStache covers the gather-reply path under plain
// Stache: aggregated gathers complete (no one waits on a parked
// buffer), memory matches, and entries are conserved.
func TestAggregationGatherStache(t *testing.T) {
	net, err := network.Preset("cluster:4x8")
	if err != nil {
		t.Fatal(err)
	}
	base := rt.Config{Nodes: 32, BlockSize: 32, Net: net}
	off := runAgg(t, base, gatherProg, 3)
	on := runAgg(t, func() rt.Config { c := base; c.Aggregate = true; return c }(), gatherProg, 3)
	if hOff, hOn := off.HashMemory(), on.HashMemory(); hOff != hOn {
		t.Fatalf("memory hash diverges: off %#x, on %#x", hOff, hOn)
	}
	c := on.Counters()
	if c.AggEntriesOut != c.AggEntriesIn {
		t.Fatalf("conservation broken: %d out, %d in", c.AggEntriesOut, c.AggEntriesIn)
	}
	if vs := check.Accounting(on); len(vs) != 0 {
		t.Fatalf("accounting violations: %v", vs)
	}
}

// TestAggregationEngineIdentity: with aggregation on, the parallel
// engine must stay byte-identical to the serial reference — the flush
// triggers are all functions of virtual state.
func TestAggregationEngineIdentity(t *testing.T) {
	net, err := network.Preset("cluster:4x8")
	if err != nil {
		t.Fatal(err)
	}
	base := rt.Config{Nodes: 32, BlockSize: 32, Net: net,
		Protocol: rt.ProtoPredictive, Aggregate: true}
	serial := runAgg(t, base, broadcastProg, 3)
	sref, err := json.Marshal(serial.Report())
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4} {
		c := base
		c.Engine = rt.EngineParallel
		c.Workers = workers
		par := runAgg(t, c, broadcastProg, 3)
		pref, err := json.Marshal(par.Report())
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(sref, pref) {
			t.Fatalf("workers=%d: parallel report diverges from serial", workers)
		}
	}
}

// TestAggregationFlatNoop: on a flat interconnect Aggregate is a no-op
// — identical results, no aggregates.
func TestAggregationFlatNoop(t *testing.T) {
	base := rt.Config{Nodes: 8, BlockSize: 32, Protocol: rt.ProtoPredictive}
	off := runAgg(t, base, broadcastProg, 2)
	on := runAgg(t, func() rt.Config { c := base; c.Aggregate = true; return c }(), broadcastProg, 2)
	offRep, _ := json.Marshal(off.Report())
	onRep, _ := json.Marshal(on.Report())
	if !bytes.Equal(offRep, onRep) {
		t.Fatal("Aggregate changed results on a flat interconnect")
	}
	if on.Counters().AggMsgs != 0 {
		t.Fatal("flat machine sent aggregates")
	}
}
