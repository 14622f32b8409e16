// Package unstructured implements an irregular bipartite-mesh kernel —
// the paper's Figure 3 workload (an unstructured mesh update that reads
// the dual mesh through per-element edge lists) — and uses it to compare
// the predictive protocol against the paper's closest related work, the
// CHAOS-style Inspector-Executor approach (§2).
//
// Each primal element holds E edge references into the dual mesh.
// Every iteration the duals are updated by their owners, then each primal
// gathers its duals' values through the indirection and relaxes. The
// three execution strategies are:
//
//   - plain Stache (every remote dual read faults);
//   - the predictive protocol (faults in one iteration build the
//     schedule; later iterations are pre-sent) — fully automatic;
//   - Inspector-Executor: an app-level inspector scans the edge lists and
//     builds a communication schedule (charged compute time), and an
//     executor issues bulk gathers before each compute phase. The
//     schedule is reused while the edges are unchanged (Ponnusamy et
//     al.); whenever the mesh adapts, the inspector must re-run.
//
// EdgeChurn rotates a fraction of edges every AdaptEvery iterations,
// reproducing the adaptive-application scenario where the paper argues
// incremental schedules beat rebuild-from-scratch inspection (§2, §3.3).
package unstructured

import (
	"fmt"
	"math/rand"

	"presto/internal/memory"
	"presto/internal/rt"
	"presto/internal/sim"
)

// Strategy selects the communication strategy.
type Strategy string

// Strategies.
const (
	// Plain runs on the write-invalidate protocol with no optimization.
	Plain Strategy = "plain"
	// Predictive runs on the paper's predictive protocol.
	Predictive Strategy = "predictive"
	// InspectorExecutor runs on Stache with app-level inspection and
	// bulk-gather execution.
	InspectorExecutor Strategy = "inspector"
)

// Phase directive IDs.
const (
	PhaseDual   = 1 // owners update dual values
	PhasePrimal = 2 // primal relax via indirection (unstructured reads)
)

// Config describes one run.
type Config struct {
	// Machine is the machine the kernel runs on; Run replaces only its
	// Protocol, which the strategy picks.
	Machine  rt.Config
	Strategy Strategy

	Primal int // primal elements
	Dual   int // dual elements
	Edges  int // edges per primal element
	Iters  int
	Seed   int64

	// AdaptEvery > 0 rotates EdgeChurn of each node's edges every
	// AdaptEvery iterations (the adaptive scenario).
	AdaptEvery int
	// EdgeChurn is the fraction of edges rewired per adaptation.
	EdgeChurn float64

	// CostEdge is the modeled computation per edge relaxation.
	CostEdge sim.Time
	// CostInspectEdge is the inspector's per-edge analysis cost.
	CostInspectEdge sim.Time
}

// Defaults fills unset fields.
func (c Config) Defaults() Config {
	if c.Strategy == "" {
		c.Strategy = Plain
	}
	if c.Primal == 0 {
		c.Primal = 2048
	}
	if c.Dual == 0 {
		c.Dual = 2048
	}
	if c.Edges == 0 {
		c.Edges = 6
	}
	if c.Iters == 0 {
		c.Iters = 20
	}
	if c.Seed == 0 {
		c.Seed = 1996
	}
	if c.EdgeChurn == 0 {
		// "In adaptive problems, communication changes frequently, but
		// incremental changes between iterations are small" (paper §1).
		c.EdgeChurn = 0.03
	}
	if c.CostEdge == 0 {
		c.CostEdge = 2 * sim.Microsecond
	}
	if c.CostInspectEdge == 0 {
		// CHAOS-style inspection translates and dedups every reference
		// and rebuilds the schedule — "typically expensive" (paper §2);
		// ~100 instructions per reference on a ~33MHz node.
		c.CostInspectEdge = 3 * sim.Microsecond
	}
	return c
}

// machineProtocol maps the strategy to a coherence protocol.
func (c Config) machineProtocol() rt.ProtocolKind {
	if c.Strategy == Predictive {
		return rt.ProtoPredictive
	}
	return rt.ProtoStache
}

// Result carries timing and validation data.
type Result struct {
	Machine   *rt.Machine
	Breakdown rt.Breakdown
	Counters  rt.Counters
	// Checksum sums the final primal values.
	Checksum float64
	// Inspections counts inspector runs (InspectorExecutor only).
	Inspections int
}

// Run executes the kernel under cfg.
func Run(cfg Config) (*Result, error) {
	c := cfg.Defaults()
	mc := c.Machine
	mc.Protocol = c.machineProtocol()
	m := rt.New(mc)
	m.NamePhase(PhaseDual, "dual-update")
	m.NamePhase(PhasePrimal, "primal-relax")
	P := m.Cfg.Nodes

	primal := m.NewArray1D("primal", c.Primal, 1, false)
	dual := m.NewArray1D("dual", c.Dual, 1, false)

	// Edge lists: mostly-local with a remote tail, like a partitioned
	// irregular mesh. Edges are private to each owner in the C** program
	// (indirection arrays are node-local in the kernel), so they live in
	// host memory.
	rng := rand.New(rand.NewSource(c.Seed))
	edges := make([][]int, c.Primal)
	for i := range edges {
		edges[i] = make([]int, c.Edges)
		for k := range edges[i] {
			if rng.Float64() < 0.6 {
				// Local-ish: a dual near the primal's position.
				edges[i][k] = (i + rng.Intn(32) - 16 + c.Dual) % c.Dual
			} else {
				edges[i][k] = rng.Intn(c.Dual)
			}
		}
	}
	// Pre-plan edge rewires so every strategy sees identical meshes.
	rewires := planRewires(c, edges)

	sums := make([]float64, P)
	inspections := make([]int, P)

	err := m.Run(func(w *rt.Worker) {
		plo, phi := primal.MyRange(w)
		dlo, dhi := dual.MyRange(w)

		// Inspector state: the set of addresses this node's executor must
		// gather, valid while inspectedAt matches the current mesh epoch.
		var gatherList []memory.Addr
		inspectedAt := -1

		inspect := func(epoch int) {
			seen := map[int]bool{}
			gatherList = gatherList[:0]
			for i := plo; i < phi; i++ {
				for _, d := range edges[i] {
					if !seen[d] {
						seen[d] = true
						if dual.Owner(d) != w.ID {
							gatherList = append(gatherList, dual.At(d, 0))
						}
					}
				}
			}
			w.Compute(sim.Time((phi-plo)*c.Edges) * c.CostInspectEdge)
			inspectedAt = epoch
			inspections[w.ID]++
		}

		epoch := 0
		for it := 0; it < c.Iters; it++ {
			// Adapt the mesh: rewire the planned edges for this iteration
			// (identical across strategies; applied redundantly by every
			// worker to its own copy of the host-side lists).
			if rw := rewires[it]; len(rw) > 0 {
				for _, r := range rw {
					edges[r.primal][r.slot] = r.newDual
				}
				epoch++
			}

			w.Phase(PhaseDual, func() {
				for d := dlo; d < dhi; d++ {
					v := float64(d%97)*0.01 + float64(it)*0.001
					w.WriteF64(dual.At(d, 0), v)
				}
				w.Compute(sim.Time(dhi-dlo) * 300 * sim.Nanosecond)
			})

			if c.Strategy == InspectorExecutor {
				// Executor: re-inspect if the mesh changed, then gather
				// the schedule in bulk before computing.
				if inspectedAt != epoch {
					inspect(epoch)
				}
				w.Gather(gatherList)
			}

			w.Phase(PhasePrimal, func() {
				for i := plo; i < phi; i++ {
					acc := 0.0
					for _, d := range edges[i] {
						acc += w.ReadF64(dual.At(d, 0))
					}
					w.WriteF64(primal.At(i, 0), acc/float64(c.Edges))
					w.Compute(sim.Time(c.Edges) * c.CostEdge)
				}
			})
		}

		var s float64
		for i := plo; i < phi; i++ {
			s += w.ReadF64(primal.At(i, 0))
		}
		sums[w.ID] = s
	})
	if err != nil {
		return &Result{Machine: m}, fmt.Errorf("unstructured: %w", err)
	}

	var checksum float64
	insp := 0
	for i := range sums {
		checksum += sums[i]
		insp += inspections[i]
	}
	return &Result{
		Machine:     m,
		Breakdown:   m.Breakdown(),
		Counters:    m.Counters(),
		Checksum:    checksum,
		Inspections: insp,
	}, nil
}

type rewire struct {
	primal, slot, newDual int
}

// planRewires precomputes deterministic edge mutations per iteration.
func planRewires(c Config, edges [][]int) [][]rewire {
	out := make([][]rewire, c.Iters)
	if c.AdaptEvery <= 0 {
		return out
	}
	rng := rand.New(rand.NewSource(c.Seed + 7))
	per := int(float64(c.Primal*c.Edges) * c.EdgeChurn)
	for it := c.AdaptEvery; it < c.Iters; it += c.AdaptEvery {
		rw := make([]rewire, 0, per)
		for k := 0; k < per; k++ {
			rw = append(rw, rewire{
				primal:  rng.Intn(c.Primal),
				slot:    rng.Intn(c.Edges),
				newDual: rng.Intn(c.Dual),
			})
		}
		out[it] = rw
	}
	return out
}
