package water

import (
	"math"
	"testing"

	"presto/internal/rt"
)

func smallCfg(proto rt.ProtocolKind, bs int) Config {
	return Config{
		Machine:   rt.Config{Nodes: 8, BlockSize: bs, Protocol: proto},
		Molecules: 64,
		Steps:     4,
	}
}

func TestWaterRunsStache(t *testing.T) {
	r, err := Run(smallCfg(rt.ProtoStache, 32))
	if err != nil {
		t.Fatal(err)
	}
	if r.Breakdown.Elapsed <= 0 || r.Breakdown.Compute <= 0 {
		t.Fatalf("degenerate breakdown %+v", r.Breakdown)
	}
	if r.Counters.ReadFaults == 0 {
		t.Fatal("expected remote position reads to fault")
	}
	if r.Energy == 0 {
		t.Fatal("energy checksum is zero")
	}
}

func TestWaterProtocolEquivalence(t *testing.T) {
	rs, err := Run(smallCfg(rt.ProtoStache, 32))
	if err != nil {
		t.Fatal(err)
	}
	rp, err := Run(smallCfg(rt.ProtoPredictive, 32))
	if err != nil {
		t.Fatal(err)
	}
	if rs.Energy != rp.Energy {
		t.Fatalf("energy differs: stache %v predictive %v", rs.Energy, rp.Energy)
	}
}

func TestWaterPredictiveReducesRemoteWait(t *testing.T) {
	rs, err := Run(smallCfg(rt.ProtoStache, 32))
	if err != nil {
		t.Fatal(err)
	}
	rp, err := Run(smallCfg(rt.ProtoPredictive, 32))
	if err != nil {
		t.Fatal(err)
	}
	if rp.Breakdown.RemoteWait >= rs.Breakdown.RemoteWait {
		t.Fatalf("predictive remote wait %v >= stache %v",
			rp.Breakdown.RemoteWait, rs.Breakdown.RemoteWait)
	}
	if rp.Counters.PresendsSent == 0 {
		t.Fatal("no pre-sends")
	}
	// The pattern is static: after the recording iteration the schedule
	// should satisfy nearly all position reads, so steady-state faults
	// must drop well below Stache's.
	if rp.Counters.ReadFaults*2 >= rs.Counters.ReadFaults {
		t.Fatalf("predictive read faults %d not well below stache %d",
			rp.Counters.ReadFaults, rs.Counters.ReadFaults)
	}
}

func TestWaterDeterministic(t *testing.T) {
	r1, err := Run(smallCfg(rt.ProtoPredictive, 32))
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Run(smallCfg(rt.ProtoPredictive, 32))
	if err != nil {
		t.Fatal(err)
	}
	if r1.Energy != r2.Energy || r1.Breakdown.Elapsed != r2.Breakdown.Elapsed {
		t.Fatalf("non-deterministic: %v/%v vs %v/%v",
			r1.Energy, r1.Breakdown.Elapsed, r2.Energy, r2.Breakdown.Elapsed)
	}
}

func TestWaterLargerBlocksFewerFaults(t *testing.T) {
	r32, err := Run(smallCfg(rt.ProtoStache, 32))
	if err != nil {
		t.Fatal(err)
	}
	r128, err := Run(smallCfg(rt.ProtoStache, 128))
	if err != nil {
		t.Fatal(err)
	}
	if r128.Counters.ReadFaults >= r32.Counters.ReadFaults {
		t.Fatalf("128B faults %d >= 32B faults %d (spatial locality should help)",
			r128.Counters.ReadFaults, r32.Counters.ReadFaults)
	}
}

func TestWaterEnergyFiniteAndStable(t *testing.T) {
	// The softened pair force and tiny time step keep the system tame:
	// the checksum must be finite and independent of node count.
	r8, err := Run(smallCfg(rt.ProtoStache, 32))
	if err != nil {
		t.Fatal(err)
	}
	if math.IsNaN(r8.Energy) || math.IsInf(r8.Energy, 0) {
		t.Fatalf("energy = %v", r8.Energy)
	}
	cfg := smallCfg(rt.ProtoStache, 32)
	cfg.Machine.Nodes = 4
	r4, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Partitioning changes the floating-point summation order of the
	// per-node checksum partials, so compare with a tight relative
	// tolerance.
	if rel := math.Abs(r4.Energy-r8.Energy) / math.Abs(r8.Energy); rel > 1e-12 {
		t.Fatalf("energy depends on node count: %v vs %v (rel %g)", r4.Energy, r8.Energy, rel)
	}
}

// TestWaterDefaultNodes: a zero node count means the default machine.
func TestWaterDefaultNodes(t *testing.T) {
	r, err := Run(Config{Molecules: 16, Steps: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got := r.Machine.Cfg.Nodes; got != 32 {
		t.Errorf("Machine.Nodes 0 ran on %d nodes, want the default 32", got)
	}
}
