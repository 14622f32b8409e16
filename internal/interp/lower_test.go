package interp

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime/debug"
	"strings"
	"testing"

	"presto/internal/compiler"
	"presto/internal/lang"
	"presto/internal/rt"
)

// runErrorCases are programs each of which fails with the given run error
// when executed (and only when executed).
var runErrorCases = []struct{ want, src string }{
	{"modulo by zero", `aggregate A[] { float x; }
		parallel func f(parallel a: A, z: float) { a.x = #0 % z; }
		func main() { let g = A[16]; f(g, 0); }`},
	{"modulo by zero", `aggregate A[] { float x; }
		parallel func f(parallel a: A) { a.x = 1; }
		func main() { let g = A[4]; f(g); let y = 7 % 0.5; }`},
	{"modulo by zero", `aggregate A[] { float x; }
		parallel func f(parallel a: A) { a.x = 1; }
		func main() { let g = A[4 % 0]; f(g); }`},
	{`unknown variable "q"`, `aggregate A[] { float x; }
		parallel func f(parallel a: A) { if #0 == 3 { a.x = q; } }
		func main() { let g = A[8]; f(g); }`},
	{`unknown variable "q" in main`, `aggregate A[] { float x; }
		parallel func f(parallel a: A) { a.x = 1; }
		func main() { let g = A[8]; f(g); let y = q + 1; }`},
	{`has no field "nope"`, `aggregate A[] { float x; }
		parallel func f(parallel a: A) { a.x = a[#0 + 1].nope; }
		func main() { let g = A[8]; f(g); }`},
	{`has no field "nope"`, `aggregate A[] { float x; }
		parallel func f(parallel a: A) { a.x = 1; }
		func main() { let g = A[8]; f(g); let s = reduce(+, g.nope); }`},
	{`aggregate "b" used as scalar`, `aggregate A[] { float x; }
		parallel func f(parallel a: A, b: A) { a.x = b + 1; }
		func main() { let g = A[8]; let h = A[8]; f(g, h); }`},
	{"sqrt expects 1 argument(s), got 2", `aggregate A[] { float x; }
		parallel func f(parallel a: A) { a.x = sqrt(1, 2); }
		func main() { let g = A[8]; f(g); }`},
	{"max expects 2 argument(s), got 1", `aggregate A[] { float x; }
		parallel func f(parallel a: A) { a.x = 1; }
		func main() { let g = A[8]; f(g); let y = 1 + max(1); }`},
	{"reduce inside parallel functions", `aggregate A[] { float x; }
		parallel func f(parallel a: A) { a.x = reduce(+, a.x); }
		func main() { let g = A[8]; f(g); }`},
	{`assignment to undeclared variable "q"`, `aggregate A[] { float x; }
		parallel func f(parallel a: A) { q = a.x; }
		func main() { let g = A[8]; f(g); }`},
	{"main may not write aggregate elements", `aggregate A[] { float x; }
		parallel func f(parallel a: A) { a.x = 1; }
		func main() { let g = A[8]; f(g); g.x = 2; }`},
	{"#0 outside a parallel function", `aggregate A[] { float x; }
		parallel func f(parallel a: A) { a.x = 1; }
		func main() { let g = A[8]; f(g); let y = #0; }`},
	{"return in main", `aggregate A[] { float x; }
		parallel func f(parallel a: A) { a.x = 1; }
		func main() { let g = A[8]; f(g); return; }`},
	{"aggregate instantiation inside parallel function", `aggregate A[] { float x; }
		parallel func f(parallel a: A) { let h = A[4]; }
		func main() { let g = A[8]; f(g); }`},
	{`call to non-parallel function "h"`, `aggregate A[] { float x; }
		func h() { }
		func main() { let g = A[8]; h(); }`},
	{"must be a variable", `aggregate A[] { float x; }
		parallel func f(parallel a: A) { a.x = 1; }
		func main() { let g = A[8]; f(1 + 2); }`},
	{`unknown aggregate "y"`, `aggregate A[] { float x; }
		parallel func f(parallel a: A, s: float, b: A) { a.x = s; }
		func main() { let g = A[8]; let y = 1; f(g, 1, y); }`},
	{`has type B, want A`, `aggregate A[] { float x; }
		aggregate B[] { float x; }
		parallel func f(parallel a: A) { a.x = 1; }
		func main() { let g = B[8]; f(g); }`},
	{"must be an aggregate", `parallel func f(parallel x: float) { }
		func main() { f(1); }`},
	{"product reductions are not supported", `aggregate A[] { float x; }
		parallel func f(parallel a: A) { a.x = 2; }
		func main() { let g = A[8]; f(g); let p = reduce(*, g.x); }`},
}

// shadowCases let a loop-body variable follow a use of the same name in
// that body; the walker read the previous iteration's value there.
var shadowCases = []string{
	`aggregate A[] { float s; }
	 parallel func f(parallel a: A, y: float) {
	   let acc = 0;
	   for k in 0..3 { acc = acc + y; let y = 100; }
	   a.s = acc;
	 }
	 func main() { let g = A[16]; f(g, 1); let s = reduce(+, g.s); }`,
	`aggregate A[] { float s; }
	 parallel func f(parallel a: A) { a.s = 1; }
	 func main() {
	   let g = A[4];
	   let y = 1;
	   let acc = 0;
	   for k in 0..3 { if k > 0 { acc = acc + y; } let y = 100; }
	 }`,
}

// unexecutedErrorSrc has an error in every branch it never takes.
const unexecutedErrorSrc = `
aggregate A[] { float x; }
parallel func f(parallel a: A) {
  if #0 > 100 {
    a.x = q + sqrt(1, 2) + a.nope + reduce(+, a.x) + 1 % 0;
    let h = A[2];
  }
  if 0 { q = 1; }
  a.x = #0;
  return;
  a.x = 1 % 0;
}
func main() {
  let g = A[8];
  f(g);
  if 0 { let z = q; g.x = 1; return; f(1); }
  let total = reduce(+, g.x);
}
`

// scatterSrc writes elements whose index, like the written value, comes
// from remote reads, so the order of the two reads shows in the faults.
const scatterSrc = `
aggregate A[] { float x; float to; }
parallel func setup(parallel a: A) { a.to = 63 - #0; a.x = #0; }
parallel func scatter(parallel a: A) {
  a[a[#0 + 9].to].x = a[#0 + 17].x + a[63 - #0].to;
}
func main() {
  let g = A[64];
  setup(g);
  for it in 0..3 { scatter(g); }
  let s = reduce(+, g.x);
}
`

// testPrograms names every program this package's tests run.
func testPrograms(t testing.TB) map[string]string {
	progs := map[string]string{
		"jacobi": jacobiSrc, "hoisted": hoistedSrc, "1d": oneDSrc,
		"rowblock": tiledSrc("rowblock"), "tiled": tiledSrc("tiled"),
		"intrinsics": intrinsicsSrc, "unknown-call": unknownCallSrc,
		"unexecuted-errors": unexecutedErrorSrc, "scatter": scatterSrc,
	}
	for k, src := range interpErrorCases {
		progs[fmt.Sprintf("interp-error-%d", k)] = src
	}
	for k, c := range runErrorCases {
		progs[fmt.Sprintf("run-error-%d", k)] = c.src
	}
	for k, src := range shadowCases {
		progs[fmt.Sprintf("shadow-%d", k)] = src
	}
	paths, err := filepath.Glob("../../testdata/*.cstar")
	if err != nil || len(paths) == 0 {
		t.Fatalf("no testdata programs: %v", err)
	}
	paths = append(paths, "../harness/barnes.cstar") // figure 4's program
	for _, p := range paths {
		src, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		progs[filepath.Base(p)] = string(src)
	}
	return progs
}

func runOpts(nodes int, proto rt.ProtocolKind) Options {
	return Options{Machine: rt.Config{Nodes: nodes, BlockSize: 32, Protocol: proto}}
}

func TestRunErrorsWhenExecuted(t *testing.T) {
	for _, c := range runErrorCases {
		_, err := Run(analyze(t, c.src), runOpts(2, rt.ProtoPredictive))
		if err == nil || !strings.HasPrefix(err.Error(), "interp: ") || !strings.Contains(err.Error(), c.want) {
			t.Errorf("got error %v, want one containing %q\n%s", err, c.want, c.src)
		}
	}
	r, err := Run(analyze(t, unexecutedErrorSrc), runOpts(2, rt.ProtoStache))
	if err != nil {
		t.Fatalf("errors in unexecuted code must not fail the run: %v", err)
	}
	if r.Scalars["total"] != 28 {
		t.Fatalf("total = %v, want 28", r.Scalars["total"])
	}
}

func TestLoopShadowRejected(t *testing.T) {
	for _, src := range shadowCases {
		_, err := Run(analyze(t, src), runOpts(2, rt.ProtoStache))
		if err == nil || !strings.Contains(err.Error(), `let "y" shadows "y" read earlier in the same loop body`) {
			t.Errorf("got %v, want the loop-shadowing rejection\n%s", err, src)
		}
	}
	// Uses that resolve inside the body, and shadowing outside loops, stay
	// legal.
	ok := `aggregate A[] { float s; }
	 parallel func f(parallel a: A, y: float) {
	   let y = y + 1;
	   for k in 0..3 { let t = k; let t = t + y; let k = 2 * k; if k > 0 { let y = 5; a.s = a.s + y + t; } }
	 }
	 func main() { let g = A[4]; let y = 2; let y = y * 3; for k in 0..2 { let y = k; f(g, y); } }`
	if _, err := Run(analyze(t, ok), runOpts(2, rt.ProtoStache)); err != nil {
		t.Fatal(err)
	}
}

// TestLoweredMatchesWalker runs every program of the package through
// both executors on 2- and 8-node machines under both protocols: results,
// simulated time, counters, memory and errors must be identical.
func TestLoweredMatchesWalker(t *testing.T) {
	progs := testPrograms(t)
	for name, src := range progs {
		a := analyze(t, src)
		for _, nodes := range []int{2, 8} {
			for _, proto := range []rt.ProtocolKind{rt.ProtoPredictive, rt.ProtoStache} {
				if msg := compareExecutors(a, runOpts(nodes, proto)); msg != "" {
					t.Errorf("%s on %d nodes, %s: %s", name, nodes, proto, msg)
				}
			}
		}
	}
}

// compareExecutors reports how the lowered program and the walker differ
// on a, or "" when they agree or only the lowered side rejects a.
func compareExecutors(a *compiler.Analysis, opt Options) string {
	rw, errW := walkRun(a, opt)
	rl, errL := Run(a, opt)
	switch {
	case errL != nil && strings.Contains(errL.Error(), "read earlier in the same loop body"):
		return ""
	case errW != nil || errL != nil:
		if fmt.Sprint(errW) != fmt.Sprint(errL) {
			return fmt.Sprintf("errors differ: walker %v, lowered %v", errW, errL)
		}
		return ""
	case len(rw.Scalars) != len(rl.Scalars):
		return fmt.Sprintf("scalars differ: walker %v, lowered %v", rw.Scalars, rl.Scalars)
	case rw.Breakdown != rl.Breakdown:
		return fmt.Sprintf("breakdowns differ: walker %+v, lowered %+v", rw.Breakdown, rl.Breakdown)
	case !reflect.DeepEqual(rw.Counters, rl.Counters):
		return fmt.Sprintf("counters differ: walker %+v, lowered %+v", rw.Counters, rl.Counters)
	case rw.Machine.HashMemory() != rl.Machine.HashMemory():
		return "memory hashes differ"
	}
	for k, v := range rw.Scalars {
		if lv, ok := rl.Scalars[k]; !ok || math.Float64bits(lv) != math.Float64bits(v) {
			return fmt.Sprintf("scalar %s: walker %v, lowered %v", k, v, lv)
		}
	}
	return ""
}

// FuzzLoweredMatchesWalker runs both executors on every program the
// parser accepts whose loops and aggregates are small enough to finish.
func FuzzLoweredMatchesWalker(f *testing.F) {
	for _, src := range testPrograms(f) {
		f.Add(src)
	}
	f.Add("func main() { let x = 1; }")
	f.Add("parallel func s(parallel g: A) { g.v = g[#0-1, #1].v; }")
	f.Fuzz(func(t *testing.T, src string) {
		prog, err := lang.Parse(src)
		if err != nil || !smallWork(prog) {
			return
		}
		a, err := compiler.Analyze(prog)
		if err != nil {
			return
		}
		for _, proto := range []rt.ProtocolKind{rt.ProtoPredictive, rt.ProtoStache} {
			if msg := compareExecutors(a, runOpts(2, proto)); msg != "" {
				t.Fatalf("%s: %s\n%s", proto, msg, src)
			}
		}
	})
}

// smallWork reports whether every aggregate size and loop bound of p is a
// constant of magnitude at most 64 and no nest of loops through main and
// a parallel function runs more than 4096 iterations.
func smallWork(p *lang.Program) bool {
	small := func(e lang.Expr) (v float64, ok bool) {
		defer func() {
			if recover() != nil {
				ok = false
			}
		}()
		v, ok = constEval(e)
		return v, ok && math.Abs(v) <= 64
	}
	var nest func(b *lang.Block) (int, bool)
	nest = func(b *lang.Block) (int, bool) {
		most := 1
		for _, s := range b.Stmts {
			n, ok := 1, true
			switch v := s.(type) {
			case *lang.LetStmt:
				size := 1.0
				for _, d := range v.AggDims {
					x, dok := small(d)
					size *= x
					ok = ok && dok && size <= 64
				}
			case *lang.IfStmt:
				n, ok = nest(v.Then)
				if v.Else != nil {
					m, eok := nest(v.Else)
					n, ok = max(n, m), ok && eok
				}
			case *lang.ForStmt:
				from, fok := small(v.From)
				to, tok := small(v.To)
				n, ok = nest(v.Body)
				n *= max(1, int(to)-int(from))
				ok = ok && fok && tok
			}
			if !ok {
				return 0, false
			}
			most = max(most, n)
		}
		return most, true
	}
	mainWork, parWork := 1, 1
	for _, f := range p.Funcs {
		n, ok := nest(f.Body)
		if !ok {
			return false
		}
		if f.Parallel {
			parWork = max(parWork, n)
		} else {
			mainWork = max(mainWork, n)
		}
	}
	return mainWork*parWork <= 4096
}

// TestParallelStepAllocsConstant pins the lowered program's per-element
// cost to zero heap allocations: the allocations of four hit-only steps
// are the same over 64 elements as over 1024.
func TestParallelStepAllocsConstant(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts vary under the race detector")
	}
	allocs := func(n, steps int) float64 {
		a := analyze(t, fmt.Sprintf(`aggregate A[] { float x; }
			parallel func bump(parallel a: A) { a.x = a.x + 1; }
			func main() { let g = A[%d]; for it in 0..%d { bump(g); } }`, n, steps))
		return testing.AllocsPerRun(3, func() {
			if _, err := Run(a, runOpts(8, rt.ProtoStache)); err != nil {
				t.Fatal(err)
			}
		})
	}
	// A collection empties the runtime's pools, whose refills would count.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	perSteps := func(n int) float64 { return allocs(n, 5) - allocs(n, 1) }
	if small, large := perSteps(64), perSteps(1024); small != large {
		t.Fatalf("four steps allocate %v objects over 64 elements but %v over 1024", small, large)
	}
}
