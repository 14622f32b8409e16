// Engine-configuration tests for the multi-core parallel engine: worker
// validation, cluster lane derivation, and identity of the pair-matrix
// lookahead with the serial reference on a two-level interconnect.
package rt_test

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"presto/internal/network"
	"presto/internal/rt"
	"presto/internal/sim"
)

// neighborProg is a small SPMD neighbor-exchange program: every node
// writes its slot, then repeatedly reads both neighbors' slots and
// accumulates — plenty of cross-node (and, clustered, cross-group)
// protocol traffic.
func neighborProg(m *rt.Machine, iters int) rt.Program {
	n := m.Cfg.Nodes
	arr := m.NewArray1D("ring", n, 1, true)
	return func(w *rt.Worker) {
		w.WriteF64(arr.At(w.ID, 0), float64(w.ID+1))
		w.Barrier()
		for it := 0; it < iters; it++ {
			w.Phase(1, func() {
				l := w.ReadF64(arr.At((w.ID+n-1)%n, 0))
				r := w.ReadF64(arr.At((w.ID+1)%n, 0))
				w.Compute(20 * sim.Microsecond)
				w.WriteF64(arr.At(w.ID, 0), l+r)
			})
			w.Barrier()
		}
	}
}

// runNeighbor executes the neighbor exchange under one engine config and
// returns the externally observable artifacts.
func runNeighbor(t *testing.T, cfg rt.Config) (sim.Time, []byte) {
	t.Helper()
	m := rt.New(cfg)
	if err := m.Run(neighborProg(m, 6)); err != nil {
		t.Fatalf("run (%+v): %v", cfg, err)
	}
	rep, err := json.Marshal(m.Report())
	if err != nil {
		t.Fatal(err)
	}
	return m.Elapsed(), rep
}

// TestClusterEngineIdentity: on a clustered interconnect the pair-matrix
// lookahead coarsens lanes to groups and widens windows to the top-level
// transit — and the result must still be byte-identical to the serial
// engine, for every worker count.
func TestClusterEngineIdentity(t *testing.T) {
	net, err := network.Preset("cluster:4x2")
	if err != nil {
		t.Fatal(err)
	}
	base := rt.Config{Nodes: 8, BlockSize: 32, Net: net}
	elapsed, report := runNeighbor(t, base)
	for _, tc := range []struct {
		name string
		w    int
	}{{"w1", 1}, {"w4", 4}, {"auto", 0}} {
		c := base
		c.Engine = rt.EngineParallel
		c.Workers = tc.w
		e, rep := runNeighbor(t, c)
		if e != elapsed {
			t.Fatalf("%s: elapsed %v, serial %v", tc.name, e, elapsed)
		}
		if !bytes.Equal(rep, report) {
			t.Fatalf("%s: metrics report diverges from serial:\n%s\nvs\n%s", tc.name, rep, report)
		}
	}
}

// TestWorkersValidation pins the -workers contract: negatives and
// requests beyond the lane count are errors, 0 means auto.
func TestWorkersValidation(t *testing.T) {
	net, err := network.Preset("cluster:2x2")
	if err != nil {
		t.Fatal(err)
	}
	run := func(cfg rt.Config) error {
		m := rt.New(cfg)
		return m.Run(func(w *rt.Worker) { w.Barrier() })
	}
	err = run(rt.Config{Nodes: 4, Engine: rt.EngineParallel, Workers: -1})
	if err == nil || !strings.Contains(err.Error(), "negative worker count") {
		t.Fatalf("negative workers: %v", err)
	}
	// 4 flat nodes = 4 lanes: 5 workers cannot all execute.
	err = run(rt.Config{Nodes: 4, Engine: rt.EngineParallel, Workers: 5})
	if err == nil || !strings.Contains(err.Error(), "exceed") {
		t.Fatalf("workers beyond flat lanes: %v", err)
	}
	// Clustered, 4 nodes coarsen to 2 lanes: 3 workers is now too many...
	err = run(rt.Config{Nodes: 4, Net: net, Engine: rt.EngineParallel, Workers: 3})
	if err == nil || !strings.Contains(err.Error(), "2 lanes") {
		t.Fatalf("workers beyond cluster lanes: %v", err)
	}
	// ...while auto clamps itself.
	if err := run(rt.Config{Nodes: 4, Net: net, Engine: rt.EngineParallel}); err != nil {
		t.Fatalf("auto workers: %v", err)
	}
}

// TestConfigValidate: every value that reaches rt.Config from a flag or
// a service spec fails with an error from Validate instead of a panic in
// New, and a template (Nodes unset) defers the shape checks to Run.
func TestConfigValidate(t *testing.T) {
	net, err := network.Preset("cluster:4x2")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		cfg  rt.Config
		want string // substring of the error; "" = valid
	}{
		{"zero value", rt.Config{}, ""},
		{"protocol", rt.Config{Protocol: "foo"}, "unknown protocol"},
		{"engine", rt.Config{Engine: "warp"}, "unknown engine"},
		{"sched", rt.Config{Sched: "fifo"}, "unknown scheduler"},
		{"storage", rt.Config{Storage: "btree"}, "unknown storage"},
		{"block not pow2", rt.Config{BlockSize: 48}, "block size 48"},
		{"block too small", rt.Config{BlockSize: 8}, "block size 8"},
		{"nodes high", rt.Config{Nodes: 5000}, "node count 5000"},
		{"nodes negative", rt.Config{Nodes: -1}, "node count -1"},
		{"workers negative", rt.Config{Workers: -1}, "negative worker count"},
		{"topology mismatch", rt.Config{Nodes: 6, Net: net}, "machine has 6"},
		{"template skips shape", rt.Config{Net: net, Engine: rt.EngineParallel, Workers: 8}, ""},
		{"sized workers", rt.Config{Nodes: 8, Net: net, Engine: rt.EngineParallel, Workers: 8}, "4 lanes"},
	} {
		err := tc.cfg.Validate()
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%s: unexpected error %v", tc.name, err)
		case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
			t.Errorf("%s: error %v, want substring %q", tc.name, err, tc.want)
		}
	}
}

// TestClusterTopologyValidation: the machine's node count must tile the
// clustered interconnect exactly, under either engine.
func TestClusterTopologyValidation(t *testing.T) {
	net, err := network.Preset("cluster:4x2")
	if err != nil {
		t.Fatal(err)
	}
	for _, engine := range []rt.EngineKind{rt.EngineSerial, rt.EngineParallel} {
		m := rt.New(rt.Config{Nodes: 6, Net: net, Engine: engine}) // 6 != 4x2
		if err := m.Run(func(w *rt.Worker) {}); err == nil {
			t.Fatalf("%s: 6 nodes on a 4x2 cluster accepted", engine)
		}
		odd, _ := network.Cluster(3, 2)
		m = rt.New(rt.Config{Nodes: 7, Net: odd, Engine: engine})
		if err := m.Run(func(w *rt.Worker) {}); err == nil || !strings.Contains(err.Error(), "tile") {
			t.Fatalf("%s: 7 nodes in groups of 2 accepted: %v", engine, err)
		}
	}
}

// TestExecInfo pins the execution-facts surface dsmrun -metrics attaches.
func TestExecInfo(t *testing.T) {
	net, err := network.Preset("cluster:4x2")
	if err != nil {
		t.Fatal(err)
	}
	m := rt.New(rt.Config{Nodes: 8, Net: net, Engine: rt.EngineParallel, Workers: 2})
	if err := m.Run(neighborProg(m, 1)); err != nil {
		t.Fatal(err)
	}
	e := m.ExecInfo()
	if e.Engine != "parallel" || e.Workers != 2 || e.Lanes != 4 {
		t.Fatalf("exec info %+v", e)
	}
	if e.GOMAXPROCS <= 0 || e.NumCPU <= 0 {
		t.Fatalf("host shape missing: %+v", e)
	}
	// Report itself must stay host-independent: Exec is attached by the
	// caller, never by Report.
	if m.Report().Exec != nil {
		t.Fatal("Report() filled Exec; it must stay deterministic")
	}
}
