package barnes

import (
	"strings"
	"testing"

	"presto/internal/rt"
)

func smallCfg(proto rt.ProtocolKind, bs int) Config {
	return Config{
		Machine: rt.Config{Nodes: 8, BlockSize: bs, Protocol: proto},
		Bodies:  512,
		Iters:   3,
	}
}

func TestBarnesRuns(t *testing.T) {
	r, err := Run(smallCfg(rt.ProtoStache, 32))
	if err != nil {
		t.Fatal(err)
	}
	if r.Cells == 0 {
		t.Fatal("no tree cells built")
	}
	if r.Cells < 64 || r.Cells > 2*512+256 {
		t.Fatalf("implausible cell count %d", r.Cells)
	}
	if r.Checksum == 0 {
		t.Fatal("zero checksum")
	}
	if r.Counters.ReadFaults == 0 {
		t.Fatal("no communication")
	}
}

func TestBarnesProtocolEquivalence(t *testing.T) {
	rs, err := Run(smallCfg(rt.ProtoStache, 32))
	if err != nil {
		t.Fatal(err)
	}
	rp, err := Run(smallCfg(rt.ProtoPredictive, 32))
	if err != nil {
		t.Fatal(err)
	}
	if rs.Checksum != rp.Checksum || rs.Cells != rp.Cells {
		t.Fatalf("results differ: stache (%v,%d) predictive (%v,%d)",
			rs.Checksum, rs.Cells, rp.Checksum, rp.Cells)
	}
}

func TestBarnesPredictiveReducesRemoteWait(t *testing.T) {
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

func TestBarnesSpatialLocalityAtLargeBlocks(t *testing.T) {
	// The paper: Barnes shows good spatial locality, so the unoptimized
	// version benefits substantially from 1024-byte blocks.
	r32, err := Run(smallCfg(rt.ProtoStache, 32))
	if err != nil {
		t.Fatal(err)
	}
	r1024, err := Run(smallCfg(rt.ProtoStache, 1024))
	if err != nil {
		t.Fatal(err)
	}
	if r1024.Counters.ReadFaults*2 >= r32.Counters.ReadFaults {
		t.Fatalf("1024B faults %d not well below 32B faults %d",
			r1024.Counters.ReadFaults, r32.Counters.ReadFaults)
	}
	if r1024.Breakdown.RemoteWait >= r32.Breakdown.RemoteWait {
		t.Fatal("large blocks did not reduce remote wait")
	}
	if r32.Checksum != r1024.Checksum {
		t.Fatalf("block size changed the answer: %v vs %v", r32.Checksum, r1024.Checksum)
	}
}

func TestBarnesSPMDBaseline(t *testing.T) {
	cfg := smallCfg(rt.ProtoUpdate, 32)
	cfg.SPMD = true
	r, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r.Counters.PresendsSent == 0 {
		t.Fatal("SPMD baseline pushed no updates")
	}
	if r.Checksum == 0 {
		t.Fatal("zero checksum")
	}
}

func TestBarnesDeterministic(t *testing.T) {
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

func TestBarnesBodiesStayInBox(t *testing.T) {
	r, err := Run(smallCfg(rt.ProtoStache, 32))
	if err != nil {
		t.Fatal(err)
	}
	m := r.Machine
	bodies := m.AS.Regions()[0]
	for i := 0; i < 512; i++ {
		for d := 0; d < 3; d++ {
			v := m.SnapshotF64(bodies.Addr(int64(i*32 + d*8)))
			if v < -0.01 || v > 1.01 {
				t.Fatalf("body %d dim %d = %v escaped the box", i, d, v)
			}
		}
	}
	// Node count must not change the physics.
	cfg := smallCfg(rt.ProtoStache, 32)
	cfg.Machine.Nodes = 4
	r4, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rel := abs(r4.Checksum-r.Checksum) / abs(r.Checksum); rel > 1e-12 {
		t.Fatalf("checksum depends on node count: %v vs %v (rel %g)", r4.Checksum, r.Checksum, rel)
	}
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}

// TestBarnesTinyProblems: a handful of bodies on many builders still fits
// the cell arena, whose segments must hold every builder's region roots,
// also at blocks so large that every block-aligned cell takes a whole
// block; and a zero node count means the default machine, as it does for
// rt.
func TestBarnesTinyProblems(t *testing.T) {
	for _, sh := range []struct{ nodes, bodies, block int }{{8, 1, 32}, {8, 7, 32}, {16, 2, 4096}, {32, 40, 4096}} {
		r, err := Run(Config{Machine: rt.Config{Nodes: sh.nodes, BlockSize: sh.block}, Bodies: sh.bodies, Iters: 2})
		if err != nil {
			t.Fatalf("%+v: %v", sh, err)
		}
		if r.Cells == 0 {
			t.Errorf("%+v: no tree cells built", sh)
		}
	}
	r, err := Run(Config{Bodies: 16, Iters: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got := r.Machine.Cfg.Nodes; got != 32 {
		t.Errorf("Machine.Nodes 0 ran on %d nodes, want the default 32", got)
	}
}

// TestBarnesSPMDUnalignedBodies: write-update SPMD pushes each owner's
// body blocks, so a node whose first body shares a block homed by
// another node is an error before the run, not a host panic.
func TestBarnesSPMDUnalignedBodies(t *testing.T) {
	_, err := Run(Config{Machine: rt.Config{Nodes: 5, BlockSize: 64, Protocol: rt.ProtoUpdate}, Bodies: 3, Iters: 1, SPMD: true})
	if err == nil || !strings.Contains(err.Error(), "node 1's first body is in a block homed by node 0") {
		t.Fatalf("got error %v, want node 1's first body rejected", err)
	}
}
