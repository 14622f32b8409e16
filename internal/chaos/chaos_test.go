package chaos

import (
	"reflect"
	"strings"
	"testing"

	"presto/internal/rt"
)

func TestDeriveDeterministic(t *testing.T) {
	for seed := int64(1); seed <= 50; seed++ {
		a := Derive(seed, ScaleQuick)
		b := Derive(seed, ScaleQuick)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("seed %d derives unstably:\n%+v\n%+v", seed, a, b)
		}
	}
	// Distinct seeds must explore distinct shapes.
	if reflect.DeepEqual(Derive(1, ScaleQuick).Phases, Derive(2, ScaleQuick).Phases) &&
		Derive(1, ScaleQuick).Nodes == Derive(2, ScaleQuick).Nodes {
		t.Fatalf("seeds 1 and 2 derive identical workloads")
	}
}

func TestDeriveInvariants(t *testing.T) {
	for seed := int64(1); seed <= 200; seed++ {
		s := Derive(seed, ScaleQuick)
		if s.Nodes < 2 || s.Nodes > 8 {
			t.Fatalf("seed %d: nodes %d out of quick envelope", seed, s.Nodes)
		}
		if s.Elems%s.Nodes != 0 || s.Elems < s.Nodes {
			t.Fatalf("seed %d: elems %d not a positive multiple of nodes %d", seed, s.Elems, s.Nodes)
		}
		contended := false
		for _, p := range s.Phases {
			if p.Stride < 1 || p.Stride > s.Nodes-1 {
				t.Fatalf("seed %d: stride %d out of [1,%d]", seed, p.Stride, s.Nodes-1)
			}
			contended = contended || p.Kind.contended()
		}
		if !contended {
			t.Fatalf("seed %d: no contended phase in %v", seed, s.Phases)
		}
		if s.FlushIter >= s.Iters || s.FlushID >= len(s.Phases) {
			t.Fatalf("seed %d: flush point (%d,%d) out of range", seed, s.FlushIter, s.FlushID)
		}
	}
}

func TestDeriveCappedRespectsCaps(t *testing.T) {
	caps := Caps{Nodes: 3, Phases: 2, Iters: 2, Blocks: 9}
	for seed := int64(1); seed <= 100; seed++ {
		s := DeriveCapped(seed, ScaleQuick, caps)
		if s.Nodes > 3 || len(s.Phases) > 2 || s.Iters > 2 || s.Elems > 9 {
			t.Fatalf("seed %d: caps %+v violated by %s", seed, caps, s)
		}
		// Capping must preserve the uncapped run's structural decisions:
		// the surviving phase prefix is identical.
		u := Derive(seed, ScaleQuick)
		for i, p := range s.Phases {
			if p.Kind != u.Phases[i].Kind || p.Count != u.Phases[i].Count {
				t.Fatalf("seed %d: capped phase %d %+v diverges from uncapped %+v",
					seed, i, p, u.Phases[i])
			}
		}
	}
}

// TestCleanSeeds is the oracle's own health check: honest protocols must
// survive a band of seeds under every protocol × engine combination.
func TestCleanSeeds(t *testing.T) {
	n := 12
	if testing.Short() {
		n = 4
	}
	rep := Fuzz(Options{Seeds: n, MaxFailures: 3})
	for _, f := range rep.Failures {
		t.Errorf("seed %d failed:\n%s", f.Seed, f.Result.Render())
	}
	if rep.SeedsRun != n {
		t.Errorf("ran %d seeds, want %d", rep.SeedsRun, n)
	}
}

// TestMutationCaughtAndShrunk injects the overtaking-deferral defect and
// requires the differential oracle to catch it and shrink it to a small
// reproducer (the PR's acceptance bound: ≤ 4 nodes, ≤ 3 phases).
func TestMutationCaughtAndShrunk(t *testing.T) {
	rep := Fuzz(Options{Seeds: 50, Mutation: rt.MutationStacheSkipDeferral})
	if rep.Ok() {
		t.Fatalf("mutation %s not caught over %d seeds", rt.MutationStacheSkipDeferral, rep.SeedsRun)
	}
	f := rep.Failures[0]
	if !f.MinResult.Failed() {
		t.Fatalf("shrunk reproducer does not fail")
	}
	if f.Min.Nodes > 4 || f.Min.Phases > 3 {
		t.Errorf("reproducer not minimal: nodes=%d phases=%d (want <=4, <=3)",
			f.Min.Nodes, f.Min.Phases)
	}
	if !strings.Contains(f.Repro, "-repro -seed") || !strings.Contains(f.Repro, "-mutate "+rt.MutationStacheSkipDeferral) {
		t.Errorf("repro command incomplete: %s", f.Repro)
	}
	// The printed command must actually reproduce: run the seed under
	// the minimal caps.
	o := Options{Mutation: rt.MutationStacheSkipDeferral, Caps: f.Min}
	if r := RunSeed(f.Seed, o); !r.Failed() {
		t.Errorf("repro seed %d with caps %+v does not fail", f.Seed, f.Min)
	}
}

// TestExecuteDeterministic pins the full fingerprint of one combination
// across repeated in-process runs (guards against host-state leaks into
// the simulation).
func TestExecuteDeterministic(t *testing.T) {
	s := Derive(7, ScaleQuick)
	a := Execute(s, rt.Config{Protocol: rt.ProtoPredictive, Engine: rt.EngineParallel, MaxEvents: 1_000_000})
	b := Execute(s, rt.Config{Protocol: rt.ProtoPredictive, Engine: rt.EngineParallel, MaxEvents: 1_000_000})
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("repeated runs diverge:\n%v\n%v", a, b)
	}
	if a.Err != "" {
		t.Fatalf("seed 7 errored: %s", a.Err)
	}
}
