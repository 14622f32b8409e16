package compiler

import (
	"os"
	"strings"
	"testing"

	"presto/internal/lang"
)

func analyze(t *testing.T, src string) *Analysis {
	t.Helper()
	prog, err := lang.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	a, err := Analyze(prog)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestSummaryClassification(t *testing.T) {
	// The paper's update example (§4.2): (primal: W, Home),
	// (dual: R, Non-Home).
	src := `
aggregate Primal[] { float v; }
aggregate Dual[] { float v; }
parallel func update(parallel primal: Primal, dual: Dual) {
  primal.v = primal.v + dual[#0+1].v;
}
func main() {
  let p = Primal[8];
  let d = Dual[8];
  update(p, d);
}
`
	a := analyze(t, src)
	s := a.Summaries["update"]
	str := s.String()
	for _, want := range []string{"(primal: W, Home)", "(primal: R, Home)", "(dual: R, Non-Home)"} {
		if !strings.Contains(str, want) {
			t.Errorf("summary %q missing %q", str, want)
		}
	}
	if s.HomeOnly() {
		t.Error("summary with dual access reported home-only")
	}
}

func TestOwnElementForms(t *testing.T) {
	src := `
aggregate G[,] { float v; }
parallel func f(parallel g: G) {
  g[#0, #1].v = g.v;          // both Home
}
parallel func h(parallel g: G) {
  g[#1, #0].v = g[#0, #0].v;  // swapped / repeated positions: Non-Home
}
func main() {
  let g = G[4, 4];
  f(g);
  h(g);
}
`
	a := analyze(t, src)
	if !a.Summaries["f"].HomeOnly() {
		t.Errorf("f should be home-only: %s", a.Summaries["f"])
	}
	if a.Summaries["h"].HomeOnly() {
		t.Errorf("h should not be home-only: %s", a.Summaries["h"])
	}
}

func TestPlacementRules(t *testing.T) {
	// producer: owner writes; consumer: unstructured reads. The consumer
	// needs a schedule (rule 2); the producer needs one only when reached
	// by the consumer's unstructured accesses (rule 1) — which happens
	// from the second loop iteration via the back edge.
	src := `
aggregate A[] { float x; }
parallel func produce(parallel g: A) { g.x = 1; }
parallel func consume(parallel g: A) { g.x = g[#0+1].x; }
func main() {
  let g = A[8];
  for i in 0..10 {
    produce(g);
    consume(g);
  }
}
`
	a := analyze(t, src)
	var produceCS, consumeCS = a.Graph.Calls[0], a.Graph.Calls[1]
	if !a.Needs(consumeCS) {
		t.Fatal("consume needs a schedule (rule 2)")
	}
	if !a.Needs(produceCS) {
		t.Fatal("produce needs a schedule (rule 1, via back edge)")
	}
}

func TestNoDirectiveWithoutCommunication(t *testing.T) {
	src := `
aggregate A[] { float x; }
parallel func localonly(parallel g: A) { g.x = g.x + 1; }
func main() {
  let g = A[8];
  for i in 0..10 {
    localonly(g);
  }
}
`
	a := analyze(t, src)
	if a.Needs(a.Graph.Calls[0]) {
		t.Fatal("home-only program must need no schedule")
	}
	if len(a.Phases) != 0 {
		t.Fatalf("phases = %d, want 0", len(a.Phases))
	}
}

func TestKillStopsReaching(t *testing.T) {
	// After an owner write with no subsequent unstructured access, a
	// second owner write is NOT reached by unstructured accesses.
	src := `
aggregate A[] { float x; }
parallel func unstr(parallel g: A) { g.x = g[#0+1].x; }
parallel func owner(parallel g: A) { g.x = 1; }
func main() {
  let g = A[8];
  unstr(g);
  owner(g);
  owner(g);
}
`
	a := analyze(t, src)
	calls := a.Graph.Calls
	if !a.Needs(calls[1]) {
		t.Fatal("first owner write is reached by unstructured accesses")
	}
	if a.Needs(calls[2]) {
		t.Fatal("second owner write follows a kill; needs no schedule")
	}
}

func TestSeparateAggregatesIndependent(t *testing.T) {
	src := `
aggregate A[] { float x; }
parallel func unstrA(parallel g: A) { g.x = g[#0+1].x; }
parallel func ownerB(parallel g: A) { g.x = 2; }
func main() {
  let a = A[8];
  let b = A[8];
  unstrA(a);
  ownerB(b);
}
`
	an := analyze(t, src)
	if an.Needs(an.Graph.Calls[1]) {
		t.Fatal("owner write to b must not be affected by unstructured accesses to a")
	}
}

func TestBarnesFigure4(t *testing.T) {
	src, err := os.ReadFile("../harness/barnes.cstar")
	if err != nil {
		t.Fatal(err)
	}
	a := analyze(t, string(src))

	// All four parallel calls need schedules, under the paper's four
	// phases (Figure 4).
	covered := a.CoveredCalls()
	if len(covered) != 4 {
		t.Fatalf("covered calls = %d, want 4 (make, com, forces, advance)", len(covered))
	}
	if len(a.Phases) != 4 {
		t.Fatalf("phases = %d, want 4\n%s", len(a.Phases), a.Report())
	}
	var comPhase *Phase
	for _, cs := range a.Graph.Calls {
		if cs.Func == "center_of_mass" {
			comPhase = a.PhaseOf(cs)
		}
	}
	if comPhase == nil {
		t.Fatal("center_of_mass not covered")
	}
	// The home-only center-of-mass loop gets a single hoisted directive
	// covering all its executions (the paper's "single directive" for
	// that phase).
	if !comPhase.Hoisted {
		t.Fatal("center_of_mass directive not hoisted out of its loop")
	}
	// The directive must sit at the loop preheader, before the loop.
	pre := a.Graph.Node(comPhase.DirectiveNode)
	if pre.Label != "preheader" {
		t.Fatalf("directive at %q, want loop preheader\n%s", pre.Label, a.Report())
	}

	rep := a.Report()
	for _, want := range []string{
		"make_tree: {", "(t: R, Non-Home)", "(t: W, Non-Home)",
		"center_of_mass: {", "(cells: W, Home)",
		"4 pre-send directives", "hoisted out of loop",
	} {
		if !strings.Contains(rep, want) {
			t.Errorf("report missing %q\n%s", want, rep)
		}
	}
}

func TestAnalyzeErrors(t *testing.T) {
	bad := []string{
		// No main.
		`aggregate A[] { float x; } parallel func f(parallel g: A) { g.x = 1; }`,
		// Arity mismatch.
		`aggregate A[] { float x; }
		 parallel func f(parallel g: A, h: A) { g.x = h[#0].x; }
		 func main() { let a = A[4]; f(a); }`,
		// Access to unknown base inside parallel function.
		`aggregate A[] { float x; }
		 parallel func f(parallel g: A) { q.x = 1; }
		 func main() { let a = A[4]; f(a); }`,
	}
	for i, src := range bad {
		prog, err := lang.Parse(src)
		if err != nil {
			continue // parse-time rejection is fine too
		}
		if _, err := Analyze(prog); err == nil {
			t.Errorf("case %d: expected analysis error", i)
		}
	}
}
