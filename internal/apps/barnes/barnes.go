// Package barnes implements the paper's Barnes benchmark: a Barnes-Hut
// gravitational N-body simulation (paper §5.2; Table 1: 16384 bodies, 3
// iterations).
//
// Bodies live in a shared aggregate ordered by a space-filling curve so a
// processor's bodies are spatially clustered (as SPLASH-2 Barnes orders
// bodies). Each time step runs the paper's four compiler-identified
// parallel phases:
//
//  1. classify — owners sort their bodies by spatial region and publish
//     per-region index lists;
//  2. build — each region's builder gathers its bodies (unstructured
//     remote reads) and constructs that subtree in its own arena segment,
//     folding the center-of-mass accumulation into insertion and
//     normalizing locally (the paper's coalesced center_of_mass);
//  3. forces — every body's force is computed by a depth-first traversal
//     opening cells whose size/distance ratio exceeds theta (unstructured
//     repetitive reads — the protocol's main target);
//  4. advance — owners integrate and write new positions (owner writes).
//
// Because the tree is rebuilt each step into deterministically reused
// arena addresses and bodies move slowly, the communication pattern is
// dynamic but largely repetitive — the property the predictive protocol
// exploits (paper §1).
//
// The hand-optimized SPMD baseline (paper Figure 6, Falsafi et al.) is
// modeled by running the same program on the write-update protocol,
// restricted to the body aggregate, with explicit position pushes after
// the advance phase.
package barnes

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"

	"presto/internal/memory"
	"presto/internal/rt"
	"presto/internal/sim"
	"presto/internal/update"
)

// Phase directive IDs (the four parallel phases of Figure 4).
const (
	PhaseClassify = 1
	PhaseBuild    = 2
	PhaseForces   = 3
	PhaseAdvance  = 4
)

// regionsPerEdge partitions the unit box into regionsPerEdge^3 spatial
// regions whose subtrees are built in parallel.
const regionsPerEdge = 4

// numRegions is the total region (subtree) count.
const numRegions = regionsPerEdge * regionsPerEdge * regionsPerEdge

// Config describes one Barnes run.
type Config struct {
	Machine rt.Config
	Bodies  int // paper: 16384
	Iters   int // paper: 3
	Seed    int64
	Theta   float64 // opening criterion; paper-era codes used ~0.5-1.0

	// SPMD selects the hand-optimized SPMD baseline: write-update
	// protocol on body positions with explicit pushes.
	SPMD bool

	// CostVisit is the modeled computation per visited tree cell.
	CostVisit sim.Time
	// CostBody is the modeled computation per body-body interaction.
	CostBody sim.Time
	// CostInsert is the modeled computation per insertion level.
	CostInsert sim.Time
	// CostClassify is the modeled per-body classification cost.
	CostClassify sim.Time
	// CostAdvance is the modeled per-body integration cost.
	CostAdvance sim.Time
}

// Defaults fills unset fields with the paper's workload.
func (c Config) Defaults() Config {
	if c.Bodies == 0 {
		c.Bodies = 16384
	}
	if c.Iters == 0 {
		c.Iters = 3
	}
	if c.Seed == 0 {
		c.Seed = 1996
	}
	if c.Theta == 0 {
		c.Theta = 0.7
	}
	if c.CostVisit == 0 {
		// Cell open test + multipole evaluation on a ~33MHz node.
		c.CostVisit = 5 * sim.Microsecond
	}
	if c.CostBody == 0 {
		c.CostBody = 8 * sim.Microsecond
	}
	if c.CostInsert == 0 {
		c.CostInsert = 1500 * sim.Nanosecond
	}
	if c.CostClassify == 0 {
		c.CostClassify = 500 * sim.Nanosecond
	}
	if c.CostAdvance == 0 {
		c.CostAdvance = 3 * sim.Microsecond
	}
	return c
}

// Result carries timing and validation data.
type Result struct {
	Machine   *rt.Machine
	Breakdown rt.Breakdown
	Counters  rt.Counters
	// Checksum sums final positions and speeds (protocol-equivalence
	// oracle).
	Checksum float64
	// Cells is the total tree cells allocated in the last step.
	Cells int
}

// Cell layout within the arena (bytes): mass, cx, cy, cz, child[0..7].
const (
	cellMass  = 0
	cellCX    = 8
	cellCY    = 16
	cellCZ    = 24
	cellChild = 32
	cellSize  = 32 + 8*8
)

// zeroCell is a new cell: zero mass and centre, every child slot empty.
var zeroCell [cellSize / 8]float64

// child-reference encoding: 0 = empty, odd = body index*2+1,
// even non-zero = cell address.
func bodyRef(i int) uint64    { return uint64(i)*2 + 1 }
func isBodyRef(r uint64) bool { return r&1 == 1 }
func bodyIndex(r uint64) int  { return int(r >> 1) }
func regionIndex(x, y, z float64) int {
	ix, iy, iz := coord(x), coord(y), coord(z)
	return (ix*regionsPerEdge+iy)*regionsPerEdge + iz
}

func coord(v float64) int {
	i := int(v * regionsPerEdge)
	if i < 0 {
		i = 0
	}
	if i >= regionsPerEdge {
		i = regionsPerEdge - 1
	}
	return i
}

// cellSegment is the byte size of each builder's arena segment on P
// nodes. A builder needs a root cell per region it owns and up to ~2
// cells per body in its regions; clustered inputs concentrate bodies, so
// size every segment for half of all bodies landing in its regions, and
// never below four cells per owned region, which a small problem's roots
// and splits need (line storage is lazy, so headroom costs nothing).
//
// Cells are block-aligned, so at blocks larger than a cell each takes a
// whole block. A segment that cannot hold even its builder's roots at
// that padding, or any segment when padAll is set, is counted in padded
// cells instead. Run sets padAll only after a run whose tree outgrew a
// segment, so every shape that fits keeps its unpadded size, and with it
// its cell addresses.
func cellSegment(n, P, bs int, padAll bool) int64 {
	regions := (numRegions + P - 1) / P
	cells := int64(max(n, 4*regions))
	seg := (cells*cellSize + int64(bs) - 1) / int64(bs) * int64(bs) // as NewArena aligns it
	padded := (cellSize + int64(bs) - 1) / int64(bs) * int64(bs)
	if padAll || seg < int64(regions-1)*padded+cellSize {
		seg = cells * padded
	}
	return seg
}

// errArenaFull is a tree build that outgrew its builder's arena segment.
var errArenaFull = errors.New("outgrew its arena segment")

// Run executes Barnes on a machine built from cfg. A run whose tree build
// outgrows an arena segment stops there and runs again on a fresh machine
// with every cell counted padded (cellSegment).
func Run(cfg Config) (*Result, error) {
	r, err := run(cfg, false)
	if errors.Is(err, errArenaFull) {
		r, err = run(cfg, true)
	}
	return r, err
}

func run(cfg Config, padAll bool) (*Result, error) {
	c := cfg.Defaults()
	n := c.Bodies
	m := rt.New(c.Machine)
	m.NamePhase(PhaseClassify, "classify")
	m.NamePhase(PhaseBuild, "tree-build")
	m.NamePhase(PhaseForces, "forces")
	m.NamePhase(PhaseAdvance, "advance")
	P := m.Cfg.Nodes

	// Bodies: x, y, z, mass (one 32-byte element per body).
	bodies := m.NewArray1D("bodies", n, 4, false)
	// Per-region subtree roots, homed at their builders.
	roots := m.NewArray1D("roots", numRegions, 1, false)
	// Mailboxes: each owner's bodies sorted by region, plus per-region
	// start offsets (numRegions+1 per node); both homed at the writer.
	mail := m.NewArray1D("mail", n, 1, false)
	mailIdx := m.NewArray1D("mailidx", P*(numRegions+1), 1, false)
	// Tree cells, allocated by each region's builder in its own segment.
	seg := cellSegment(n, P, m.Cfg.BlockSize, padAll)
	arena := m.NewArena("cells", seg*int64(P))

	if c.SPMD {
		if u, ok := m.Proto.(*update.Update); ok {
			// Each owner pushes its bodies' blocks, which it must home, so
			// its first body has to start a block.
			for node, per := 0, (n+P-1)/P; node*per < n; node++ {
				if home := m.AS.HomeOf(bodies.At(node*per, 0)); home != node {
					return &Result{Machine: m}, fmt.Errorf("barnes: SPMD write-update needs each node's bodies to start a block: node %d's first body is in a block homed by node %d (%d bodies per node, %dB blocks)",
						node, home, per, m.Cfg.BlockSize)
				}
			}
			u.SetRegions(bodies.R.ID)
		}
	}

	// Synthetic Plummer-flavored input: a uniform background plus dense
	// clusters, sorted along a space-filling (Morton) order so that
	// index-contiguous bodies are spatially local.
	rng := rand.New(rand.NewSource(c.Seed))
	clusters := [][3]float64{{0.3, 0.4, 0.5}, {0.7, 0.6, 0.4}, {0.2, 0.7, 0.7}, {0.6, 0.3, 0.6}}
	type body struct {
		x, y, z, mass float64
	}
	bs := make([]body, n)
	for i := range bs {
		var b body
		if i%8 == 0 { // clustered eighth: deep, unbalanced subtrees
			c := clusters[(i/8)%len(clusters)]
			b = body{
				x:    clamp01(c[0] + 0.1*rng.NormFloat64()),
				y:    clamp01(c[1] + 0.1*rng.NormFloat64()),
				z:    clamp01(c[2] + 0.1*rng.NormFloat64()),
				mass: 0.5 + rng.Float64(),
			}
		} else {
			b = body{x: rng.Float64(), y: rng.Float64(), z: rng.Float64(), mass: 0.5 + rng.Float64()}
		}
		bs[i] = b
	}
	sort.Slice(bs, func(i, j int) bool { return morton(bs[i].x, bs[i].y, bs[i].z) < morton(bs[j].x, bs[j].y, bs[j].z) })

	const dt = 1e-3
	checks := make([]float64, P)
	cellCounts := make([]int, P)
	full := make([]bool, P) // whose tree outgrew its segment

	err := m.Run(func(w *rt.Worker) {
		defer func() {
			if r := recover(); r != nil {
				if r != errArenaFull {
					panic(r)
				}
				full[w.ID] = true
			}
		}()
		lo, hi := bodies.MyRange(w)
		rlo, rhi := roots.MyRange(w)
		vel := make([]float64, 3*(hi-lo)) // owner-private velocities
		acc := make([]float64, 3*(hi-lo))
		myCells := []memory.Addr{}

		// Owners publish initial body data.
		w.Phase(PhaseAdvance, func() {
			for i := lo; i < hi; i++ {
				w.WriteF64s(bodies.At(i, 0), []float64{bs[i].x, bs[i].y, bs[i].z, bs[i].mass})
			}
			w.Compute(sim.Time(hi-lo) * c.CostAdvance)
		})

		// newCell allocates and zeroes a local tree cell.
		newCell := func() memory.Addr {
			if !arena.Fits(w.ID, cellSize, true) {
				panic(errArenaFull) // the other workers stop at the next barrier
			}
			a := arena.Alloc(w.ID, cellSize, true)
			w.WriteF64s(a, zeroCell[:])
			myCells = append(myCells, a)
			return a
		}

		step := func(iter int) {
			// Phase 1: classify — owners bucket their bodies by region
			// and publish index lists (local reads and writes; remote
			// reads happen in the build phase).
			w.Phase(PhaseClassify, func() {
				byRegion := make([][]int, numRegions)
				for i := lo; i < hi; i++ {
					var p [3]float64
					w.ReadF64s(bodies.At(i, 0), p[:])
					r := regionIndex(p[0], p[1], p[2])
					byRegion[r] = append(byRegion[r], i)
					w.Compute(c.CostClassify)
				}
				pos := lo
				for r := 0; r < numRegions; r++ {
					w.WriteU64(mailIdx.At(w.ID*(numRegions+1)+r, 0), uint64(pos))
					for _, i := range byRegion[r] {
						w.WriteU64(mail.At(pos, 0), uint64(i))
						pos++
					}
				}
				w.WriteU64(mailIdx.At(w.ID*(numRegions+1)+numRegions, 0), uint64(pos))
			})

			// Phase 2: build — each builder constructs its regions'
			// subtrees from everyone's mailboxes (unstructured reads),
			// then normalizes centers of mass locally.
			w.Phase(PhaseBuild, func() {
				if iter > 0 {
					// The tree is rebuilt from scratch each step into the
					// same (deterministic) arena addresses.
					myCells = myCells[:0]
					arena.ResetNode(w.ID)
				}
				re := 1.0 / regionsPerEdge
				for r := rlo; r < rhi; r++ {
					root := newCell()
					ox := float64(r/(regionsPerEdge*regionsPerEdge)) * re
					oy := float64(r/regionsPerEdge%regionsPerEdge) * re
					oz := float64(r%regionsPerEdge) * re
					count := 0
					for src := 0; src < w.Nodes(); src++ {
						var span [2]uint64 // src's list for region r: start and end
						w.ReadU64s(mailIdx.At(src*(numRegions+1)+r, 0), span[:])
						for k := span[0]; k < span[1]; k++ {
							idx := int(w.ReadU64(mail.At(int(k), 0)))
							var q [4]float64
							w.ReadF64s(bodies.At(idx, 0), q[:])
							insertInto(w, c, bodies, root, ox, oy, oz, re, idx, q[0], q[1], q[2], q[3], newCell)
							count++
						}
					}
					if count == 0 {
						w.WriteU64(roots.At(r, 0), 0)
						continue
					}
					w.WriteU64(roots.At(r, 0), uint64(root))
				}
				// Normalize centers of mass (home-only writes — the
				// paper's coalesced center_of_mass loop).
				for _, cell := range myCells {
					ms := w.ReadF64(cell.Add(cellMass))
					if ms > 0 {
						inv := 1 / ms
						w.WriteF64(cell.Add(cellCX), w.ReadF64(cell.Add(cellCX))*inv)
						w.WriteF64(cell.Add(cellCY), w.ReadF64(cell.Add(cellCY))*inv)
						w.WriteF64(cell.Add(cellCZ), w.ReadF64(cell.Add(cellCZ))*inv)
					}
					w.Compute(500 * sim.Nanosecond)
				}
			})

			// Phase 3: forces — unstructured repetitive reads of cells
			// and bodies (the predictive protocol's target).
			w.Phase(PhaseForces, func() {
				re := 1.0 / regionsPerEdge
				for i := lo; i < hi; i++ {
					var p [3]float64
					w.ReadF64s(bodies.At(i, 0), p[:])
					px, py, pz := p[0], p[1], p[2]
					ax, ay, az := 0.0, 0.0, 0.0

					var trav func(ref uint64, ox, oy, oz, edge float64)
					trav = func(ref uint64, ox, oy, oz, edge float64) {
						if ref == 0 {
							return
						}
						if isBodyRef(ref) {
							j := bodyIndex(ref)
							if j == i {
								return
							}
							var q [4]float64
							w.ReadF64s(bodies.At(j, 0), q[:])
							fx, fy, fz := pairAccel(px, py, pz, q[0], q[1], q[2], q[3])
							ax += fx
							ay += fy
							az += fz
							w.Compute(c.CostBody)
							return
						}
						// Mass and centre are one run: a referenced cell holds
						// a body, so its mass is never 0 and the word-by-word
						// reads past the test below would happen too.
						cell := memory.Addr(ref)
						var mc [4]float64
						w.ReadF64s(cell.Add(cellMass), mc[:])
						ms, cx, cy, cz := mc[0], mc[1], mc[2], mc[3]
						if ms == 0 {
							return
						}
						dx, dy, dz := cx-px, cy-py, cz-pz
						d2 := dx*dx + dy*dy + dz*dz
						w.Compute(c.CostVisit)
						if edge*edge < c.Theta*c.Theta*d2 {
							fx, fy, fz := pairAccel(px, py, pz, cx, cy, cz, ms)
							ax += fx
							ay += fy
							az += fz
							return
						}
						// Child slots are read a block at a time as the loop
						// reaches the block. No cell is written in this phase, so
						// nothing changes or invalidates a slot between its early
						// read and the loop reaching it (a recording node still
						// reads one slot per access, in loop order).
						half := edge / 2
						var kids [8]uint64
						for oct, have := 0, 0; oct < 8; oct++ {
							if oct == have {
								have += w.ReadU64sInBlock(cell.Add(cellChild+int64(oct)*8), kids[oct:])
							}
							child := kids[oct]
							if child == 0 {
								continue
							}
							cox := ox + float64(oct>>2&1)*half
							coy := oy + float64(oct>>1&1)*half
							coz := oz + float64(oct&1)*half
							trav(child, cox, coy, coz, half)
						}
					}

					// Roots, written only in the build phase, are read a
					// block at a time like child slots.
					var refs [numRegions]uint64
					for r, have := 0, 0; r < numRegions; r++ {
						if r == have {
							have += w.ReadU64sInBlock(roots.At(r, 0), refs[r:])
						}
						ref := refs[r]
						ox := float64(r/(regionsPerEdge*regionsPerEdge)) * re
						oy := float64(r/regionsPerEdge%regionsPerEdge) * re
						oz := float64(r%regionsPerEdge) * re
						trav(ref, ox, oy, oz, re)
					}
					acc[3*(i-lo)+0] = ax
					acc[3*(i-lo)+1] = ay
					acc[3*(i-lo)+2] = az
				}
			})

			// Phase 4: advance — owners integrate and publish positions.
			w.Phase(PhaseAdvance, func() {
				for i := lo; i < hi; i++ {
					k := 3 * (i - lo)
					vel[k+0] += dt * acc[k+0]
					vel[k+1] += dt * acc[k+1]
					vel[k+2] += dt * acc[k+2]
					for d := 0; d < 3; d++ {
						a := bodies.At(i, d)
						x := w.ReadF64(a) + dt*vel[k+d]
						if x < 0 {
							x = -x
						}
						if x > 1 {
							x = 2 - x
						}
						w.WriteF64(a, x)
					}
					w.Compute(c.CostAdvance)
				}
				if c.SPMD {
					// Hand-optimized push: send fresh positions straight
					// to their consumers (write-update protocol).
					addrs := make([]memory.Addr, 0, hi-lo)
					for i := lo; i < hi; i++ {
						addrs = append(addrs, bodies.At(i, 0))
					}
					w.PushUpdates(addrs)
				}
			})
		}

		for iter := 0; iter < c.Iters; iter++ {
			step(iter)
		}

		var cs float64
		for i := lo; i < hi; i++ {
			var p [3]float64
			w.ReadF64s(bodies.At(i, 0), p[:])
			cs += p[0] + p[1] + p[2]
		}
		for _, v := range vel {
			cs += v * v
		}
		checks[w.ID] = cs
		cellCounts[w.ID] = len(myCells)
	})
	if node := slices.Index(full, true); node >= 0 {
		return &Result{Machine: m}, fmt.Errorf("barnes: node %d's tree %w (%d bytes)", node, errArenaFull, seg)
	}
	if err != nil {
		return &Result{Machine: m}, fmt.Errorf("barnes: %w", err)
	}

	var checksum float64
	cells := 0
	for i := range checks {
		checksum += checks[i]
		cells += cellCounts[i]
	}
	return &Result{
		Machine:   m,
		Breakdown: m.Breakdown(),
		Counters:  m.Counters(),
		Checksum:  checksum,
		Cells:     cells,
	}, nil
}

// insertInto is the iterative oct-tree insertion used by the build phase.
func insertInto(w *rt.Worker, c Config, bodies *rt.Array1D, root memory.Addr, ox, oy, oz, edge float64, idx int, px, py, pz, ms float64, newCell func() memory.Addr) {
	cell := root
	for depth := 0; ; depth++ {
		if depth > 64 {
			panic("barnes: insertion depth exceeded (coincident bodies?)")
		}
		w.WriteF64(cell.Add(cellMass), w.ReadF64(cell.Add(cellMass))+ms)
		w.WriteF64(cell.Add(cellCX), w.ReadF64(cell.Add(cellCX))+ms*px)
		w.WriteF64(cell.Add(cellCY), w.ReadF64(cell.Add(cellCY))+ms*py)
		w.WriteF64(cell.Add(cellCZ), w.ReadF64(cell.Add(cellCZ))+ms*pz)
		w.Compute(c.CostInsert)

		half := edge / 2
		oct := 0
		nx, ny, nz := ox, oy, oz
		if px >= ox+half {
			oct |= 4
			nx += half
		}
		if py >= oy+half {
			oct |= 2
			ny += half
		}
		if pz >= oz+half {
			oct |= 1
			nz += half
		}
		slot := cell.Add(cellChild + int64(oct)*8)
		ref := w.ReadU64(slot)
		switch {
		case ref == 0:
			w.WriteU64(slot, bodyRef(idx))
			return
		case isBodyRef(ref):
			// Split: allocate a child cell, push the resident body one
			// level down (its data was read at its own insertion, so
			// these loads hit the local cache), then continue placing
			// the current body inside the new cell.
			other := bodyIndex(ref)
			var ob [4]float64
			w.ReadF64s(bodies.At(other, 0), ob[:])
			nc := newCell()
			w.WriteU64(slot, uint64(nc))
			insertInto(w, c, bodies, nc, nx, ny, nz, half, other, ob[0], ob[1], ob[2], ob[3], newCell)
			cell, edge = nc, half
			ox, oy, oz = nx, ny, nz
		default:
			cell, edge = memory.Addr(ref), half
			ox, oy, oz = nx, ny, nz
		}
	}
}

// pairAccel returns the acceleration on p due to a point mass qm at q,
// with Plummer softening.
func pairAccel(px, py, pz, qx, qy, qz, qm float64) (ax, ay, az float64) {
	dx, dy, dz := qx-px, qy-py, qz-pz
	d2 := dx*dx + dy*dy + dz*dz + 1e-6
	inv := qm / (d2 * math.Sqrt(d2))
	return dx * inv, dy * inv, dz * inv
}

func clamp01(v float64) float64 {
	if v < 0.01 {
		return 0.01
	}
	if v > 0.99 {
		return 0.99
	}
	return v
}

func morton(x, y, z float64) uint64 {
	const bits = 10
	xi := uint64(x * (1 << bits))
	yi := uint64(y * (1 << bits))
	zi := uint64(z * (1 << bits))
	var m uint64
	for b := bits - 1; b >= 0; b-- {
		m = m<<3 | (xi>>uint(b)&1)<<2 | (yi>>uint(b)&1)<<1 | (zi >> uint(b) & 1)
	}
	return m
}
