package adaptive

import (
	"testing"

	"presto/internal/rt"
)

func smallCfg(proto rt.ProtocolKind, bs int) Config {
	return Config{
		Machine:     rt.Config{Nodes: 8, BlockSize: bs, Protocol: proto},
		Size:        32,
		Iters:       12,
		RefineEvery: 3,
	}
}

func TestAdaptiveRuns(t *testing.T) {
	r, err := Run(smallCfg(rt.ProtoStache, 32))
	if err != nil {
		t.Fatal(err)
	}
	if r.Checksum <= 0 {
		t.Fatalf("checksum = %v; the hot wall should raise potentials", r.Checksum)
	}
	if r.Refined == 0 {
		t.Fatal("no cells refined; gradient threshold mis-tuned")
	}
	if r.Counters.ReadFaults == 0 {
		t.Fatal("no boundary communication")
	}
}

func TestAdaptiveProtocolEquivalence(t *testing.T) {
	rs, err := Run(smallCfg(rt.ProtoStache, 32))
	if err != nil {
		t.Fatal(err)
	}
	rp, err := Run(smallCfg(rt.ProtoPredictive, 32))
	if err != nil {
		t.Fatal(err)
	}
	if rs.Checksum != rp.Checksum || rs.Refined != rp.Refined {
		t.Fatalf("results differ: stache (%v,%d) predictive (%v,%d)",
			rs.Checksum, rs.Refined, rp.Checksum, rp.Refined)
	}
}

func TestAdaptivePredictiveReducesRemoteWait(t *testing.T) {
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
}

func TestAdaptiveIncrementalSchedules(t *testing.T) {
	// Refinement adds sub-grids over time; later iterations must fault on
	// the new blocks once (incremental schedule growth), after which the
	// pre-send covers them too. We check that predictive total faults stay
	// well below stache's (which re-faults every iteration).
	rs, err := Run(smallCfg(rt.ProtoStache, 32))
	if err != nil {
		t.Fatal(err)
	}
	rp, err := Run(smallCfg(rt.ProtoPredictive, 32))
	if err != nil {
		t.Fatal(err)
	}
	if rp.Counters.ReadFaults*3 >= rs.Counters.ReadFaults {
		t.Fatalf("predictive faults %d not well below stache %d",
			rp.Counters.ReadFaults, rs.Counters.ReadFaults)
	}
}

func TestAdaptiveDeterministic(t *testing.T) {
	r1, err := Run(smallCfg(rt.ProtoPredictive, 32))
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Run(smallCfg(rt.ProtoPredictive, 32))
	if err != nil {
		t.Fatal(err)
	}
	if r1.Checksum != r2.Checksum || r1.Breakdown.Elapsed != r2.Breakdown.Elapsed {
		t.Fatal("non-deterministic run")
	}
}

func TestAdaptiveBlockSizes(t *testing.T) {
	// Larger blocks exploit the row-contiguous layout: fewer faults for
	// the unoptimized version (the paper's block-size tradeoff).
	r32, err := Run(smallCfg(rt.ProtoStache, 32))
	if err != nil {
		t.Fatal(err)
	}
	r256, err := Run(smallCfg(rt.ProtoStache, 256))
	if err != nil {
		t.Fatal(err)
	}
	if r256.Counters.ReadFaults >= r32.Counters.ReadFaults {
		t.Fatalf("256B faults %d >= 32B faults %d", r256.Counters.ReadFaults, r32.Counters.ReadFaults)
	}
	if r32.Checksum != r256.Checksum {
		t.Fatalf("block size changed the answer: %v vs %v", r32.Checksum, r256.Checksum)
	}
}

func TestAdaptivePhysicalBounds(t *testing.T) {
	// The potential is a convex combination of boundary values in [0,1],
	// so every interior cell must stay within [0,1] and the hot wall must
	// raise nearby cells above the far side.
	r, err := Run(smallCfg(rt.ProtoStache, 32))
	if err != nil {
		t.Fatal(err)
	}
	m := r.Machine
	n := 32
	grid := m.AS.Regions()[0] // "cur"
	var nearWall, farWall float64
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			v := m.SnapshotF64(grid.Addr(int64(i*n+j) * 8))
			if v < 0 || v > 1 {
				t.Fatalf("cell (%d,%d) = %v outside [0,1]", i, j, v)
			}
			if j == 1 {
				nearWall += v
			}
			if j == n-2 {
				farWall += v
			}
		}
	}
	if nearWall <= farWall {
		t.Fatalf("potential not decaying from the hot wall: near=%v far=%v", nearWall, farWall)
	}
}

// TestAdaptiveSwitchesBoundedByFaults: a compute Proc gives the baton up only
// when it blocks, and gets it back on the event that wakes it — a fault's
// reply or a resume event (spawn, barrier release) — so coroutine switches are
// bounded by faults plus resumes, and are the same number on every run.
func TestAdaptiveSwitchesBoundedByFaults(t *testing.T) {
	var first int64
	for i := 0; i < 3; i++ {
		r, err := Run(smallCfg(rt.ProtoStache, 32))
		if err != nil {
			t.Fatal(err)
		}
		sw := r.Machine.Kernel.Switches()
		faults := r.Counters.ReadFaults + r.Counters.WriteFaults
		resumes := r.Machine.Kernel.Stats().Resumes
		if sw == 0 || sw > faults+resumes {
			t.Fatalf("%d switches, want 1..%d (%d faults + %d resumes)", sw, faults+resumes, faults, resumes)
		}
		if i == 0 {
			first = sw
		} else if sw != first {
			t.Fatalf("run %d: %d switches, run 0: %d", i, sw, first)
		}
	}
}

// TestAdaptiveDefaultNodes: a zero node count means the default machine.
func TestAdaptiveDefaultNodes(t *testing.T) {
	r, err := Run(Config{Size: 32, Iters: 2})
	if err != nil {
		t.Fatal(err)
	}
	if got := r.Machine.Cfg.Nodes; got != 32 {
		t.Errorf("Machine.Nodes 0 ran on %d nodes, want the default 32", got)
	}
}
