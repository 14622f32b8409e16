package unstructured

import (
	"testing"

	"presto/internal/check"
	"presto/internal/network"
	"presto/internal/rt"
)

func cfg(s Strategy, adaptEvery int) Config {
	return Config{
		Machine:    rt.Config{Nodes: 8, BlockSize: 32},
		Strategy:   s,
		Primal:     512,
		Dual:       512,
		Edges:      4,
		Iters:      10,
		AdaptEvery: adaptEvery,
	}
}

func TestStrategiesAgree(t *testing.T) {
	for _, adapt := range []int{0, 3} {
		var ref float64
		for _, s := range []Strategy{Plain, Predictive, InspectorExecutor} {
			r, err := Run(cfg(s, adapt))
			if err != nil {
				t.Fatalf("%s: %v", s, err)
			}
			if r.Checksum == 0 {
				t.Fatalf("%s: zero checksum", s)
			}
			if ref == 0 {
				ref = r.Checksum
			} else if r.Checksum != ref {
				t.Fatalf("%s (adapt=%d): checksum %v != %v", s, adapt, r.Checksum, ref)
			}
			if vs := check.Machine(r.Machine); len(vs) > 0 {
				t.Fatalf("%s: coherence: %s", s, check.Report(vs))
			}
		}
	}
}

func TestStaticPatternBothOptimizationsWork(t *testing.T) {
	plain, err := Run(cfg(Plain, 0))
	if err != nil {
		t.Fatal(err)
	}
	pred, err := Run(cfg(Predictive, 0))
	if err != nil {
		t.Fatal(err)
	}
	ie, err := Run(cfg(InspectorExecutor, 0))
	if err != nil {
		t.Fatal(err)
	}
	if pred.Breakdown.RemoteWait >= plain.Breakdown.RemoteWait {
		t.Fatalf("predictive remote wait %v >= plain %v", pred.Breakdown.RemoteWait, plain.Breakdown.RemoteWait)
	}
	if ie.Counters.ReadFaults >= plain.Counters.ReadFaults {
		t.Fatalf("IE faults %d >= plain %d (gather should prefetch)", ie.Counters.ReadFaults, plain.Counters.ReadFaults)
	}
	if pred.Breakdown.Elapsed >= plain.Breakdown.Elapsed {
		t.Fatal("predictive not faster than plain on a static pattern")
	}
	if ie.Breakdown.Elapsed >= plain.Breakdown.Elapsed {
		t.Fatal("inspector-executor not faster than plain on a static pattern")
	}
	// With no adaptation the inspector runs exactly once per node.
	if ie.Inspections != 8 {
		t.Fatalf("inspections = %d, want 8", ie.Inspections)
	}
}

func TestAdaptivePatternReinspects(t *testing.T) {
	ie, err := Run(cfg(InspectorExecutor, 3))
	if err != nil {
		t.Fatal(err)
	}
	// 10 iterations, adapt every 3 => epochs at 3,6,9 => 4 inspections
	// per node.
	if ie.Inspections != 8*4 {
		t.Fatalf("inspections = %d, want 32", ie.Inspections)
	}
}

func TestAdaptiveChurnFavorsIncrementalSchedules(t *testing.T) {
	// Under churn, the predictive protocol adds new blocks incrementally,
	// while the inspector pays a full re-analysis each epoch. The paper's
	// §2 argument: incremental schedules are necessary for adaptive
	// applications.
	c := cfg(Predictive, 2)
	c.Iters = 16
	pred, err := Run(c)
	if err != nil {
		t.Fatal(err)
	}
	c.Strategy = InspectorExecutor
	ie, err := Run(c)
	if err != nil {
		t.Fatal(err)
	}
	c.Strategy = Plain
	plain, err := Run(c)
	if err != nil {
		t.Fatal(err)
	}
	if pred.Breakdown.Elapsed >= plain.Breakdown.Elapsed {
		t.Fatal("predictive lost its advantage under churn")
	}
	// The inspector's repeated analysis cost must be visible as extra
	// compute relative to its static-pattern run.
	if ie.Breakdown.Compute <= pred.Breakdown.Compute {
		t.Fatalf("IE compute %v <= predictive %v; inspection cost missing",
			ie.Breakdown.Compute, pred.Breakdown.Compute)
	}
}

func TestDeterministic(t *testing.T) {
	r1, err := Run(cfg(InspectorExecutor, 3))
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Run(cfg(InspectorExecutor, 3))
	if err != nil {
		t.Fatal(err)
	}
	if r1.Checksum != r2.Checksum || r1.Breakdown.Elapsed != r2.Breakdown.Elapsed {
		t.Fatal("non-deterministic")
	}
}

// TestRunKeepsMachine: Run builds its machine from Config.Machine and
// replaces only the protocol, so run-wide settings such as node-leader
// aggregation and the scheduler reach the machine.
func TestRunKeepsMachine(t *testing.T) {
	net, err := network.Preset("cluster:4x4")
	if err != nil {
		t.Fatal(err)
	}
	c := cfg(Predictive, 0)
	c.Machine = rt.Config{Nodes: 16, BlockSize: 32, Protocol: rt.ProtoUpdate, Net: net, Aggregate: true, Sched: rt.SchedHeap}
	r, err := Run(c)
	if err != nil {
		t.Fatal(err)
	}
	got := r.Machine.Cfg
	if got.Protocol != rt.ProtoPredictive || !got.Aggregate || got.Sched != rt.SchedHeap {
		t.Fatalf("machine ran protocol %q aggregate %v sched %q, want predictive, true, heap", got.Protocol, got.Aggregate, got.Sched)
	}
	if r.Counters.AggMsgs == 0 {
		t.Fatal("aggregated predictive run on cluster:4x4 sent no leader aggregates")
	}
}
