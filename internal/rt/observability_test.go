package rt

import (
	"testing"

	"presto/internal/trace"
)

// presendPipeline runs a deterministic 2-node pipeline: node 0 writes K
// blocks it homes each iteration, node 1 reads them. From the second
// iteration on, the predictive protocol pre-sends every block node 1
// will read, so its read faults in the consumer phase occur only in
// iteration 0. afterIters, when non-nil, runs on every worker after the
// iteration loop (behind a barrier).
func presendPipeline(t *testing.T, iters int, afterIters func(w *Worker)) *Machine {
	t.Helper()
	m := New(Config{Nodes: 2, BlockSize: 32, Protocol: ProtoPredictive, Sink: trace.NewRing(64)})
	// 16 elements x 8B = 4 blocks; node 0 homes elements 0..7 (2 blocks).
	arr := m.NewArray1D("x", 16, 1, false)
	err := m.Run(func(w *Worker) {
		for it := 0; it < iters; it++ {
			w.Phase(1, func() {
				if w.ID == 0 {
					for i := 0; i < 8; i++ {
						w.WriteF64(arr.At(i, 0), float64(it*100+i))
					}
				}
			})
			w.Phase(2, func() {
				if w.ID == 1 {
					for i := 0; i < 8; i++ {
						if got := w.ReadF64(arr.At(i, 0)); got != float64(it*100+i) {
							t.Errorf("iter %d elem %d = %v", it, i, got)
						}
					}
				}
			})
		}
		if afterIters != nil {
			w.Barrier()
			afterIters(w)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestPresendHitAccountingExact(t *testing.T) {
	const iters = 4
	m := presendPipeline(t, iters, nil)
	consumer := m.Nodes[1]
	ph := consumer.Met.Phases.Lookup(2)
	if ph == nil {
		t.Fatal("consumer recorded no phase-2 stats")
	}
	// Node 0 homes 2 blocks; iterations 1..3 pre-send both, and every
	// pre-sent block is consumed before any fault.
	const wantPresends = 2 * (iters - 1)
	if ph.PresendsIn != wantPresends || ph.PresendHits != wantPresends {
		t.Fatalf("phase 2 presends in/hits = %d/%d, want %d/%d",
			ph.PresendsIn, ph.PresendHits, wantPresends, wantPresends)
	}
	// Only iteration 0 faults: one read fault per producer-homed block.
	if ph.ReadFaults != 2 || ph.WriteFaults != 0 {
		t.Fatalf("phase 2 faults = %d read, %d write", ph.ReadFaults, ph.WriteFaults)
	}
	if ph.Iters != iters {
		t.Fatalf("phase 2 iters = %d", ph.Iters)
	}
	if got := ph.Coverage(); got != 0.75 {
		t.Fatalf("coverage = %v, want 0.75 (6 hits / (6 hits + 2 faults))", got)
	}
	if got := ph.Accuracy(); got != 1.0 {
		t.Fatalf("accuracy = %v, want 1.0", got)
	}
	// Node-global counters agree and nothing went stale.
	if got := consumer.Met.PresendsIn.Value(); got != wantPresends {
		t.Fatalf("global presends_in = %d", got)
	}
	if got := consumer.Met.PresendHits.Value(); got != wantPresends {
		t.Fatalf("global presend_hits = %d", got)
	}
	if got := consumer.Met.PresendsStale.Value(); got != 0 {
		t.Fatalf("presends_stale = %d", got)
	}
	// The machine-level breakdown aggregates the same numbers.
	var stat *PhaseStat
	for _, p := range m.PhaseBreakdown() {
		if p.Phase == 2 {
			q := p
			stat = &q
		}
	}
	if stat == nil {
		t.Fatal("phase 2 missing from PhaseBreakdown")
	}
	if stat.PresendsIn != wantPresends || stat.PresendHits != wantPresends || stat.Faults() != 2 {
		t.Fatalf("breakdown phase 2 = %+v", stat)
	}
}

func TestFlushSchedulesResetsHitCounters(t *testing.T) {
	m := presendPipeline(t, 4, func(w *Worker) {
		w.FlushSchedules(2)
	})
	consumer := m.Nodes[1]
	ph := consumer.Met.Phases.Lookup(2)
	if ph == nil {
		t.Fatal("consumer recorded no phase-2 stats")
	}
	if ph.PresendsIn != 0 || ph.PresendHits != 0 {
		t.Fatalf("flush left phase 2 presends in/hits = %d/%d", ph.PresendsIn, ph.PresendHits)
	}
	// Faults and timing survive the flush; only schedule-hit counters
	// restart with the rebuilt schedule.
	if ph.ReadFaults != 2 {
		t.Fatalf("flush clobbered fault counts: %d", ph.ReadFaults)
	}
	// A full flush (id < 0) also clears the node-global counters.
	m2 := presendPipeline(t, 4, func(w *Worker) {
		w.FlushSchedules(-1)
	})
	c2 := m2.Nodes[1]
	if c2.Met.PresendsIn.Value() != 0 || c2.Met.PresendHits.Value() != 0 {
		t.Fatalf("full flush left global counters %d/%d",
			c2.Met.PresendsIn.Value(), c2.Met.PresendHits.Value())
	}
}

func TestPhaseTraceSpans(t *testing.T) {
	m := presendPipeline(t, 2, nil)
	begins, ends := 0, 0
	for _, e := range m.Cfg.Sink.(*trace.Ring).Events() {
		switch e.Kind {
		case trace.PhaseBegin:
			begins++
			if e.Phase != 1 && e.Phase != 2 {
				t.Fatalf("span for unknown phase %d", e.Phase)
			}
		case trace.PhaseEnd:
			ends++
		}
	}
	if begins == 0 || begins != ends {
		t.Fatalf("phase spans unbalanced: %d begins, %d ends", begins, ends)
	}
}

func TestKernelStatsPopulated(t *testing.T) {
	m := presendPipeline(t, 2, nil)
	ks := m.Kernel.Stats()
	if ks.Events == 0 || ks.Deliveries == 0 || ks.Procs == 0 {
		t.Fatalf("kernel stats = %+v", ks)
	}
	rep := m.Report()
	if rep.Protocol != "predictive" || rep.Nodes != 2 || rep.ElapsedNS == 0 {
		t.Fatalf("report header = %+v", rep)
	}
	if len(rep.Phases) != 2 {
		t.Fatalf("report phases = %+v", rep.Phases)
	}
	if rep.Registry == nil || len(rep.Registry.Counters) == 0 {
		t.Fatal("report registry empty")
	}
}
