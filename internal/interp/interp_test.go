package interp

import (
	"math"
	"os"
	"testing"

	"presto/internal/compiler"
	"presto/internal/lang"
	"presto/internal/rt"
)

const jacobiSrc = `
aggregate Cell[,] {
  float v;
  float nv;
}

parallel func inject(parallel g: Cell) {
  if #0 == 0 {
    g.v = 1;
  }
}

parallel func sweep(parallel g: Cell) {
  g.nv = 0.25 * (g[#0-1, #1].v + g[#0+1, #1].v + g[#0, #1-1].v + g[#0, #1+1].v);
}

parallel func commit(parallel g: Cell) {
  if #0 > 0 {
    g.v = g.nv;
  }
}

func main() {
  let g = Cell[16, 16];
  inject(g);
  for it in 0..8 {
    sweep(g);
    commit(g);
  }
  let total = reduce(+, g.v);
  let peak = reduce(>, g.v);
}
`

const hoistedSrc = `
aggregate A[] { float x; float s; }

parallel func scatter(parallel g: A) {
  g.s = g[#0-1].x + g[#0+1].x;
}

parallel func scale(parallel g: A) {
  g.x = g.x * 0.5 + g.s * 0.25;
}

func main() {
  let g = A[32];
  for it in 0..4 {
    scatter(g);
    for k in 0..3 {
      scale(g);
    }
  }
  let total = reduce(+, g.x);
}
`

var interpErrorCases = []string{
	// Non-constant aggregate size.
	`aggregate A[] { float x; }
		 parallel func f(parallel g: A) { g.x = 1; }
		 func main() { let n = 4; let g = A[n]; f(g); }`,
	// Valid: scalar reassignment in main.
	`aggregate A[] { float x; }
		 parallel func f(parallel g: A) { g.x = 1; }
		 func main() { let g = A[4]; f(g); let y = 1; y = y + 1; }`,
}

const oneDSrc = `
aggregate V[] { float x; float y; }
parallel func initv(parallel g: V) { g.x = #0; }
parallel func shift(parallel g: V) { g.y = g[#0+1].x; }
func main() {
  let g = V[64];
  initv(g);
  shift(g);
  let total = reduce(+, g.y);
}
`

func tiledSrc(dist string) string {
	return `
aggregate Cell[,] ` + dist + ` {
  float v;
  float nv;
}
parallel func seed(parallel g: Cell) {
  g.v = #0 * 10 + #1;
}
parallel func sweep(parallel g: Cell) {
  g.nv = g[#0-1, #1].v + g[#0+1, #1].v + g[#0, #1-1].v + g[#0, #1+1].v;
}
func main() {
  let g = Cell[16, 16];
  seed(g);
  for it in 0..3 {
    sweep(g);
  }
  let total = reduce(+, g.nv);
}
`
}

const intrinsicsSrc = `
aggregate A[] { float x; }
parallel func f(parallel g: A) {
  g.x = sqrt(16) + abs(0 - 2) + min(3, 5) + max(3, 5) + floor(2.9);
}
func main() {
  let g = A[4];
  f(g);
  let total = reduce(+, g.x);
}
`

const unknownCallSrc = `
aggregate A[] { float x; }
parallel func f(parallel g: A) { g.x = mystery(1); }
func main() { let g = A[4]; f(g); }
`

func analyze(t *testing.T, src string) *compiler.Analysis {
	t.Helper()
	prog, err := lang.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	a, err := compiler.Analyze(prog)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// jacobiReference computes the same recurrence on the host.
func jacobiReference(n, iters int) (total, peak float64) {
	v := make([][]float64, n)
	nv := make([][]float64, n)
	for i := range v {
		v[i] = make([]float64, n)
		nv[i] = make([]float64, n)
	}
	for j := 0; j < n; j++ {
		v[0][j] = 1
	}
	read := func(i, j int) float64 {
		if i < 0 || i >= n || j < 0 || j >= n {
			return 0
		}
		return v[i][j]
	}
	for it := 0; it < iters; it++ {
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				nv[i][j] = 0.25 * (read(i-1, j) + read(i+1, j) + read(i, j-1) + read(i, j+1))
			}
		}
		for i := 1; i < n; i++ {
			for j := 0; j < n; j++ {
				v[i][j] = nv[i][j]
			}
		}
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			total += v[i][j]
			if v[i][j] > peak {
				peak = v[i][j]
			}
		}
	}
	return total, peak
}

func runJacobi(t *testing.T, proto rt.ProtocolKind) *Result {
	t.Helper()
	a := analyze(t, jacobiSrc)
	r, err := Run(a, Options{Machine: rt.Config{Nodes: 4, BlockSize: 32, Protocol: proto}})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestJacobiMatchesReference(t *testing.T) {
	r := runJacobi(t, rt.ProtoStache)
	total, peak := jacobiReference(16, 8)
	if math.Abs(r.Scalars["total"]-total) > 1e-9 {
		t.Fatalf("total = %v, want %v", r.Scalars["total"], total)
	}
	if math.Abs(r.Scalars["peak"]-peak) > 1e-9 {
		t.Fatalf("peak = %v, want %v", r.Scalars["peak"], peak)
	}
}

func TestJacobiProtocolEquivalence(t *testing.T) {
	rs := runJacobi(t, rt.ProtoStache)
	rp := runJacobi(t, rt.ProtoPredictive)
	if rs.Scalars["total"] != rp.Scalars["total"] {
		t.Fatalf("totals differ: %v vs %v", rs.Scalars["total"], rp.Scalars["total"])
	}
	if rp.Counters.PresendsSent == 0 {
		t.Fatal("compiled directives fired no pre-sends")
	}
	if rp.Breakdown.RemoteWait >= rs.Breakdown.RemoteWait {
		t.Fatalf("predictive remote wait %v >= stache %v",
			rp.Breakdown.RemoteWait, rs.Breakdown.RemoteWait)
	}
}

func TestHoistedDirectiveProgram(t *testing.T) {
	// A home-only loop between unstructured phases: the directive is
	// hoisted; the program must still run correctly end to end.
	a := analyze(t, hoistedSrc)
	hoisted := false
	for _, ph := range a.Phases {
		if ph.Hoisted {
			hoisted = true
		}
	}
	if !hoisted {
		t.Fatal("test premise broken: no hoisted directive")
	}
	rs, err := Run(a, Options{Machine: rt.Config{Nodes: 4, BlockSize: 32}})
	if err != nil {
		t.Fatal(err)
	}
	a2 := analyze(t, hoistedSrc)
	rp, err := Run(a2, Options{Machine: rt.Config{Nodes: 4, BlockSize: 32, Protocol: rt.ProtoPredictive}})
	if err != nil {
		t.Fatal(err)
	}
	if rs.Scalars["total"] != rp.Scalars["total"] {
		t.Fatalf("totals differ: %v vs %v", rs.Scalars["total"], rp.Scalars["total"])
	}
}

func TestInterpDeterministic(t *testing.T) {
	r1 := runJacobi(t, rt.ProtoPredictive)
	r2 := runJacobi(t, rt.ProtoPredictive)
	if r1.Breakdown.Elapsed != r2.Breakdown.Elapsed || r1.Scalars["total"] != r2.Scalars["total"] {
		t.Fatal("non-deterministic interpretation")
	}
}

func TestInterpErrors(t *testing.T) {
	// Only the first case must fail; the second is valid and checks that
	// scalar reassignment works.
	a0 := analyze(t, interpErrorCases[0])
	if _, err := Run(a0, Options{Machine: rt.Config{Nodes: 2, BlockSize: 32}}); err == nil {
		t.Fatal("expected error for non-constant size")
	}
	a1 := analyze(t, interpErrorCases[1])
	r, err := Run(a1, Options{Machine: rt.Config{Nodes: 2, BlockSize: 32}})
	if err != nil {
		t.Fatal(err)
	}
	if r.Scalars["y"] != 2 {
		t.Fatalf("y = %v, want 2", r.Scalars["y"])
	}
}

func Test1DAggregates(t *testing.T) {
	a := analyze(t, oneDSrc)
	r, err := Run(a, Options{Machine: rt.Config{Nodes: 4, BlockSize: 32}})
	if err != nil {
		t.Fatal(err)
	}
	// After init, x[i] = i; after shift, y[i] = i+1 except y[63] = 0
	// (boundary). Sum = (1+...+63) + 0 = 2016.
	if r.Scalars["total"] != 2016 {
		t.Fatalf("total = %v, want 2016", r.Scalars["total"])
	}
}

func TestTiledDistribution(t *testing.T) {
	// The same program under rowblock and tiled distributions must give
	// identical results; only the communication pattern differs.
	results := map[string]float64{}
	for _, dist := range []string{"rowblock", "tiled"} {
		a := analyze(t, tiledSrc(dist))
		r, err := Run(a, Options{Machine: rt.Config{Nodes: 4, BlockSize: 32}})
		if err != nil {
			t.Fatal(err)
		}
		results[dist] = r.Scalars["total"]
		if r.Scalars["total"] == 0 {
			t.Fatalf("%s: zero total", dist)
		}
	}
	if results["rowblock"] != results["tiled"] {
		t.Fatalf("distributions disagree: %v vs %v", results["rowblock"], results["tiled"])
	}
}

func TestTiledRequires2D(t *testing.T) {
	if _, err := lang.Parse(`aggregate A[] tiled { float x; }`); err == nil {
		t.Fatal("tiled 1-D aggregate must be rejected")
	}
	if _, err := lang.Parse(`aggregate A[,] diagonal { float x; }`); err == nil {
		t.Fatal("unknown distribution must be rejected")
	}
}

func TestNsquaredKernel(t *testing.T) {
	src, err := os.ReadFile("../../testdata/nsquared.cstar")
	if err != nil {
		t.Fatal(err)
	}
	run := func(proto rt.ProtocolKind) *Result {
		a := analyze(t, string(src))
		r, err := Run(a, Options{Machine: rt.Config{Nodes: 8, BlockSize: 32, Protocol: proto}})
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	rs := run(rt.ProtoStache)
	rp := run(rt.ProtoPredictive)
	if rs.Scalars["spread"] != rp.Scalars["spread"] || rs.Scalars["energy"] != rp.Scalars["energy"] {
		t.Fatalf("protocols disagree: %v/%v vs %v/%v",
			rs.Scalars["spread"], rs.Scalars["energy"], rp.Scalars["spread"], rp.Scalars["energy"])
	}
	if rs.Scalars["spread"] <= 0 {
		t.Fatalf("degenerate spread %v", rs.Scalars["spread"])
	}
	if rp.Breakdown.RemoteWait >= rs.Breakdown.RemoteWait {
		t.Fatalf("static pattern not predicted: %v vs %v", rp.Breakdown.RemoteWait, rs.Breakdown.RemoteWait)
	}
}

func TestIntrinsics(t *testing.T) {
	a := analyze(t, intrinsicsSrc)
	r, err := Run(a, Options{Machine: rt.Config{Nodes: 2, BlockSize: 32}})
	if err != nil {
		t.Fatal(err)
	}
	// 4 + 2 + 3 + 5 + 2 = 16 per element, 4 elements.
	if r.Scalars["total"] != 64 {
		t.Fatalf("total = %v, want 64", r.Scalars["total"])
	}
}

func TestUnknownCallRejected(t *testing.T) {
	a := analyze(t, unknownCallSrc)
	if _, err := Run(a, Options{Machine: rt.Config{Nodes: 2, BlockSize: 32}}); err == nil {
		t.Fatal("unknown intrinsic accepted")
	}
}

// TestReduceExtremaOverEmptyWorkers: on a machine with more nodes than
// elements (1-D) or tiles (tiled 2-D) some workers own nothing, and their
// share must not stand in for an element: max of all-negative values and
// min of all-positive ones come out as the extreme element.
func TestReduceExtremaOverEmptyWorkers(t *testing.T) {
	srcs := map[string]string{
		"1-D": `aggregate A[] { float neg; float pos; }
			parallel func f(parallel a: A) { a.neg = -1 - #0; a.pos = 1 + #0; }
			func main() { let g = A[4]; f(g); let hi = reduce(>, g.neg); let lo = reduce(<, g.pos); }`,
		"tiled 2-D": `aggregate C[,] tiled { float neg; float pos; }
			parallel func f(parallel c: C) { c.neg = -1 - #0 - #1; c.pos = 1 + #0 + #1; }
			func main() { let g = C[2, 2]; f(g); let hi = reduce(>, g.neg); let lo = reduce(<, g.pos); }`,
	}
	for name, src := range srcs {
		a := analyze(t, src)
		for _, nodes := range []int{2, 8, 16} {
			r, err := Run(a, runOpts(nodes, rt.ProtoStache))
			if err != nil {
				t.Fatal(err)
			}
			if hi, lo := r.Scalars["hi"], r.Scalars["lo"]; hi != -1 || lo != 1 {
				t.Errorf("%s on %d nodes: reduce(>) = %v, reduce(<) = %v; want -1 and 1", name, nodes, hi, lo)
			}
		}
	}
}
