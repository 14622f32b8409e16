package presto_test

import (
	"strings"
	"testing"

	"presto"
)

const facadeSrc = `
aggregate V[] { float x; float y; }
parallel func produce(parallel g: V) { g.x = #0; }
parallel func consume(parallel g: V) { g.y = g[#0+1].x + g[#0-1].x; }
func main() {
  let g = V[128];
  for it in 0..6 {
    produce(g);
    consume(g);
  }
  let total = reduce(+, g.y);
}
`

func TestFacadeCompileExecute(t *testing.T) {
	a, err := presto.Compile(facadeSrc)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(a.Report(), "pre-send directive") {
		t.Fatal("report missing directives")
	}
	r, err := presto.Execute(a, presto.ExecuteOptions{
		Machine: presto.Config{Nodes: 8, BlockSize: 32, Protocol: presto.Predictive},
	})
	if err != nil {
		t.Fatal(err)
	}
	if r.Scalars["total"] == 0 {
		t.Fatal("zero checksum")
	}
	if r.Counters.PresendsSent == 0 {
		t.Fatal("no pre-sends under the predictive protocol")
	}
	if viol := presto.CheckCoherence(r.Machine); len(viol) > 0 {
		t.Fatalf("coherence: %v", viol)
	}
}

func TestFacadeMachineAPI(t *testing.T) {
	m := presto.NewMachine(presto.Config{Nodes: 4, BlockSize: 32, Protocol: presto.Stache})
	arr := m.NewArray1D("data", 16, 1, false)
	if err := m.Run(func(w *presto.Worker) {
		lo, hi := arr.MyRange(w)
		for i := lo; i < hi; i++ {
			w.WriteF64(arr.At(i, 0), float64(i))
		}
		w.Barrier()
		sum := 0.0
		for i := 0; i < arr.N; i++ {
			sum += w.ReadF64(arr.At(i, 0))
		}
		if sum != 120 {
			t.Errorf("sum = %v", sum)
		}
	}); err != nil {
		t.Fatal(err)
	}
	if m.Elapsed() == 0 {
		t.Fatal("no virtual time elapsed")
	}
}
