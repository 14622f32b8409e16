package chaos

import (
	"reflect"
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
	// A shrunk failure's repro command carries the derived size as its
	// caps, so capping a seed by its own capped size must derive the same
	// spec again.
	for _, sc := range []Scale{ScaleQuick, ScaleLong} {
		for _, c := range []Caps{{}, caps, {Nodes: 2}, {Nodes: 4, Phases: 3}, {Phases: 1}, {Iters: 1}, {Blocks: 4}} {
			for seed := int64(0); seed < 500; seed++ {
				s := DeriveCapped(seed, sc, c)
				if again := DeriveCapped(seed, sc, s.Size()); !reflect.DeepEqual(again, s) {
					t.Fatalf("seed %d %s caps %+v: recapped at %+v derives %s, want %s", seed, sc, c, s.Size(), again, s)
				}
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
	rep := Fuzz(Options{Seeds: n, Start: 1, MaxFailures: 3})
	for _, f := range rep.Failures {
		t.Errorf("seed %d failed:\n%s", f.Seed, f.Result.Render())
	}
	if rep.SeedsRun != n {
		t.Errorf("ran %d seeds, want %d", rep.SeedsRun, n)
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
