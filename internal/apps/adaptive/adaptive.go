// Package adaptive implements the paper's Adaptive benchmark: a
// structured adaptive mesh relaxation computing electric potentials in a
// box (paper §5.1; Table 1: 128x128 mesh, 100 iterations).
//
// The program imposes a mesh over the box and computes the potential at
// each point by averaging its four neighbors; where the gradient is steep
// it subdivides the cell, attaching a dynamically allocated sub-grid (the
// paper's quad-tree, one level here). Each iteration performs two
// half-sweeps over double-buffered cell values; refined cells additionally
// update their sub-values, and neighbors of a refined cell read the facing
// sub-values instead of the coarse value — the "data movement from
// neighbor reads in the quad tree" the predictive protocol optimizes.
// Refinement grows incrementally as the solution front advances, which
// exercises the protocol's incremental schedules. Load imbalance from
// clustered refinement produces the uneven shared-data wait the paper
// notes (§5.1).
package adaptive

import (
	"fmt"

	"presto/internal/memory"
	"presto/internal/rt"
	"presto/internal/sim"
)

// Phase directive IDs.
const (
	PhaseInit   = 1 // initial condition (owner writes)
	PhaseSweepA = 2 // cur -> next half-sweep
	PhaseSweepB = 3 // next -> cur half-sweep
	PhaseRefine = 4 // gradient test + subdivision (owner writes)
)

// Config describes one Adaptive run.
type Config struct {
	Machine rt.Config
	Size    int // mesh edge; paper: 128
	Iters   int // paper: 100
	Seed    int64

	// RefineEvery is the interval (iterations) between refinement passes.
	RefineEvery int
	// MaxRefineFrac caps the fraction of cells that may refine.
	MaxRefineFrac float64

	// CostCell is the modeled computation per coarse cell update.
	CostCell sim.Time
	// CostSub is the modeled computation per refined cell's sub-grid
	// update (per half-sweep).
	CostSub sim.Time
}

// Defaults fills unset fields with the paper's workload.
func (c Config) Defaults() Config {
	if c.Size == 0 {
		c.Size = 128
	}
	if c.Iters == 0 {
		c.Iters = 100
	}
	if c.RefineEvery == 0 {
		c.RefineEvery = 5
	}
	if c.MaxRefineFrac == 0 {
		c.MaxRefineFrac = 0.25
	}
	if c.CostCell == 0 {
		// Coarse 4-point stencil with quad-tree presence checks on a
		// ~33MHz node.
		c.CostCell = 10 * sim.Microsecond
	}
	if c.CostSub == 0 {
		c.CostSub = 25 * sim.Microsecond
	}
	return c
}

// Result carries timing and validation data.
type Result struct {
	Machine   *rt.Machine
	Breakdown rt.Breakdown
	Counters  rt.Counters
	// Checksum is the sum of all coarse cell values after the run.
	Checksum float64
	// Refined is the final number of refined cells.
	Refined int
}

// Run executes Adaptive on a machine built from cfg.
func Run(cfg Config) (*Result, error) {
	c := cfg.Defaults()
	n := c.Size
	m := rt.New(c.Machine)
	m.NamePhase(PhaseInit, "init")
	m.NamePhase(PhaseSweepA, "sweep-a")
	m.NamePhase(PhaseSweepB, "sweep-b")
	m.NamePhase(PhaseRefine, "refine")

	cur := m.NewGrid2D("cur", n, n, 1, rt.RowBlock)
	next := m.NewGrid2D("next", n, n, 1, rt.RowBlock)
	// Per-cell quad-tree metadata: one word, 0 when unrefined, otherwise
	// the sub-grid's (8-byte-aligned) arena address with the low bit set.
	meta := m.NewGrid2D("meta", n, n, 1, rt.RowBlock)
	// Sub-grids: two parity buffers of 4 sub-values each (32 bytes per
	// parity), allocated from per-parity arenas so that (a) one sweep's
	// sources and targets never share a cache block and (b) sub-grids of
	// cells refined together are contiguous, which lets the pre-send
	// coalesce them into bulk messages.
	maxRefined := int(float64(n*n)*c.MaxRefineFrac) + n
	perCell := int64(64)
	if bs := int64(m.Cfg.BlockSize); bs > perCell {
		perCell = bs
	}
	sub0 := m.NewArena("quadtree0", int64(maxRefined)*perCell)
	sub1 := m.NewArena("quadtree1", int64(maxRefined)*perCell)

	refinedCount := make([]int, m.Cfg.Nodes)
	sums := make([]float64, m.Cfg.Nodes)

	// boundary returns the fixed potential outside the mesh: the west
	// wall is held at 1 (the "hot" electrode), the rest at 0.
	boundary := func(i, j int) float64 {
		if j < 0 {
			return 1.0
		}
		return 0.0
	}

	err := m.Run(func(w *rt.Worker) {
		lo, hi := cur.MyRows(w)

		// readMeta returns whether cell (i,j) is refined and the address
		// of its parity-0 sub-buffer (parity 1 lives in the twin arena at
		// the same offset).
		readMeta := func(i, j int) (bool, memory.Addr) {
			v := w.ReadU64(meta.At(i, j, 0))
			if v == 0 {
				return false, 0
			}
			return true, memory.Addr(v &^ 1)
		}

		// subAt returns the sub-buffer address of the given parity, using
		// the twin arenas' identical layout.
		subAt := func(sub memory.Addr, parity int) memory.Addr {
			if parity == 0 {
				return sub
			}
			return sub1.R.Addr(sub.Offset())
		}

		// effective reads the neighbor value seen from direction side
		// (0=N,1=S,2=E,3=W relative to the reader): facing sub-values for
		// refined cells, the coarse value otherwise. srcGrid/parity select
		// the half-sweep's source buffer.
		effective := func(srcGrid *rt.Grid2D, parity int, i, j, side int) float64 {
			if i < 0 || i >= n || j < 0 || j >= n {
				return boundary(i, j)
			}
			refined, sub := readMeta(i, j)
			if !refined {
				return w.ReadF64(srcGrid.At(i, j, 0))
			}
			// Sub-value layout within a parity buffer: [NW NE SW SE].
			base := subAt(sub, parity)
			var a, b memory.Addr
			switch side {
			case 0: // reader is south of (i,j): read its S edge
				a, b = base.Add(16), base.Add(24)
			case 1: // reader is north: read its N edge
				a, b = base.Add(0), base.Add(8)
			case 2: // reader is west of (i,j): read its W edge
				a, b = base.Add(0), base.Add(16)
			default: // reader is east: read its E edge
				a, b = base.Add(8), base.Add(24)
			}
			return 0.5 * (w.ReadF64(a) + w.ReadF64(b))
		}

		// sweep performs one half-sweep src->dst; parity selects the
		// sub-value source buffer (writes go to 1-parity).
		sweep := func(src, dst *rt.Grid2D, parity int) {
			for i := lo; i < hi; i++ {
				for j := 0; j < n; j++ {
					vN := effective(src, parity, i-1, j, 0)
					vS := effective(src, parity, i+1, j, 1)
					vW := effective(src, parity, i, j-1, 2)
					vE := effective(src, parity, i, j+1, 3)
					avg := 0.25 * (vN + vS + vW + vE)
					w.WriteF64(dst.At(i, j, 0), avg)
					w.Compute(c.CostCell)
					if refined, sub := readMeta(i, j); refined {
						// Update own sub-values into the other parity.
						out := subAt(sub, 1-parity)
						own := w.ReadF64(src.At(i, j, 0))
						w.WriteF64s(out, []float64{
							0.5*own + 0.25*(vN+vW), 0.5*own + 0.25*(vN+vE),
							0.5*own + 0.25*(vS+vW), 0.5*own + 0.25*(vS+vE),
						})
						w.Compute(c.CostSub)
					}
				}
			}
		}

		// Initial condition: zero interior, metadata cleared.
		w.Phase(PhaseInit, func() {
			for i := lo; i < hi; i++ {
				for j := 0; j < n; j++ {
					w.WriteF64(cur.At(i, j, 0), 0)
					w.WriteF64(next.At(i, j, 0), 0)
					w.WriteU64(meta.At(i, j, 0), 0)
				}
			}
			w.Compute(sim.Time((hi-lo)*n) * 200 * sim.Nanosecond)
		})

		myRefined := 0
		budget := maxRefined / w.Nodes()
		for it := 0; it < c.Iters; it++ {
			w.Phase(PhaseSweepA, func() { sweep(cur, next, 0) })
			w.Phase(PhaseSweepB, func() { sweep(next, cur, 1) })

			if (it+1)%c.RefineEvery != 0 {
				continue
			}
			// Refinement pass: owners subdivide steep cells. The
			// threshold tightens as the mesh relaxes, so the refined
			// region grows incrementally (adaptive pattern).
			thresh := 0.08 * (1 - float64(it)/float64(c.Iters))
			w.Phase(PhaseRefine, func() {
				for i := lo; i < hi; i++ {
					for j := 0; j < n; j++ {
						if myRefined >= budget {
							break
						}
						if refined, _ := readMeta(i, j); refined {
							continue
						}
						own := w.ReadF64(cur.At(i, j, 0))
						g := 0.0
						for _, d := range [4][2]int{{-1, 0}, {1, 0}, {0, -1}, {0, 1}} {
							ni, nj := i+d[0], j+d[1]
							var nv float64
							if ni < 0 || ni >= n || nj < 0 || nj >= n {
								nv = boundary(ni, nj)
							} else {
								nv = w.ReadF64(cur.At(ni, nj, 0))
							}
							if diff := nv - own; diff > g {
								g = diff
							} else if -diff > g {
								g = -diff
							}
						}
						w.Compute(800 * sim.Nanosecond)
						if g <= thresh {
							continue
						}
						sub := sub0.Alloc(w.ID, 32, true)
						subB := sub1.Alloc(w.ID, 32, true)
						if subB.Offset() != sub.Offset() {
							panic("adaptive: twin arenas diverged")
						}
						for k := int64(0); k < 4; k++ {
							w.WriteF64(sub.Add(8*k), own)
							w.WriteF64(subB.Add(8*k), own)
						}
						w.WriteU64(meta.At(i, j, 0), uint64(sub)|1)
						myRefined++
						w.Compute(3 * sim.Microsecond)
					}
				}
			})
		}

		var s float64
		for i := lo; i < hi; i++ {
			for j := 0; j < n; j++ {
				s += w.ReadF64(cur.At(i, j, 0))
			}
		}
		sums[w.ID] = s
		refinedCount[w.ID] = myRefined
	})
	if err != nil {
		return &Result{Machine: m}, fmt.Errorf("adaptive: %w", err)
	}

	var checksum float64
	var refined int
	for i := range sums {
		checksum += sums[i]
		refined += refinedCount[i]
	}
	return &Result{
		Machine:   m,
		Breakdown: m.Breakdown(),
		Counters:  m.Counters(),
		Checksum:  checksum,
		Refined:   refined,
	}, nil
}
