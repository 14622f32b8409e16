// Package water implements the paper's Water benchmark: an n-squared
// molecular-dynamics code (after SPLASH/SPLASH-2 Water) evaluating forces
// and potentials in a system of water molecules over a number of time
// steps (paper §5.3; Table 1: 512 molecules, 20 iterations).
//
// Following the paper's data-parallel formulation, each molecule computes
// interactions with the half of the remaining molecules following it in
// the ordered data set, restricted to a spherical cutoff of half the box
// length. A molecule's position, updated by its owner in one phase, is
// read by the n/2 preceding molecules' owners in the force phase of the
// next iteration — a static, repetitive producer-consumer pattern, the
// compiler-directed optimization target. Pair forces accumulate into
// per-processor private arrays combined by a language-level reduction
// (reductions are outside the predictive protocol's scope, paper §1).
package water

import (
	"fmt"
	"math"
	"math/rand"

	"presto/internal/rt"
	"presto/internal/sim"
)

// Phase directive IDs (as the C** compiler would number the parallel
// phases of main's loop).
const (
	PhaseAdvance = 1 // positions updated by owners (owner writes)
	PhaseForces  = 2 // half-shell pair interactions (unstructured reads)
	PhaseCorrect = 3 // velocity update from combined forces (owner-only)
)

// Config describes one Water run.
type Config struct {
	Machine   rt.Config
	Molecules int // paper: 512
	Steps     int // paper: 20
	Seed      int64

	// CostPair is the modeled computation per pair interaction
	// (distance check + Lennard-Jones-style force for pairs in range).
	CostPair sim.Time
	// CostAdvance is the modeled computation per molecule per
	// advance/correct phase.
	CostAdvance sim.Time

	// Splash selects the Splash-2-style shared-memory variant (paper
	// Figure 7's third bar): reaction forces are accumulated into the
	// shared force array under per-molecule locks instead of a
	// language-level reduction. SplashLockBatch models how many molecules
	// one lock acquisition covers.
	Splash          bool
	SplashLockBatch int
}

// Defaults fills unset fields with the paper's workload and a cost
// calibration for a mid-90s processor.
func (c Config) Defaults() Config {
	if c.Molecules == 0 {
		c.Molecules = 512
	}
	if c.Steps == 0 {
		c.Steps = 20
	}
	if c.Seed == 0 {
		c.Seed = 1996
	}
	if c.CostPair == 0 {
		// ~300 flops per site-site pair interaction on a ~33MHz CM-5
		// SPARC node.
		c.CostPair = 10 * sim.Microsecond
	}
	if c.CostAdvance == 0 {
		c.CostAdvance = 8 * sim.Microsecond
	}
	if c.SplashLockBatch == 0 {
		c.SplashLockBatch = 8
	}
	return c
}

// Result carries the run's timing and validation data.
type Result struct {
	Machine   *rt.Machine
	Breakdown rt.Breakdown
	Counters  rt.Counters
	// Energy is the final system checksum (sum of squared velocities plus
	// potential accumulator) used to validate protocol equivalence.
	Energy float64
}

// box is the simulation box edge; the cutoff is box/2 (paper §5.3).
const box = 1.0

// Run executes Water on a machine built from cfg.
func Run(cfg Config) (*Result, error) {
	c := cfg.Defaults()
	n := c.Molecules
	m := rt.New(c.Machine)
	m.NamePhase(PhaseAdvance, "advance")
	m.NamePhase(PhaseForces, "forces")
	m.NamePhase(PhaseCorrect, "correct")
	m.NamePhase(PhaseForces+10, "forces-splash")
	m.NamePhase(PhaseCorrect+10, "correct-splash")

	// Positions: 4 float64 fields (x, y, z, pad) so one molecule occupies
	// exactly one 32-byte block at the smallest block size; larger blocks
	// hold several neighboring molecules of the same owner.
	pos := m.NewArray1D("pos", n, 4, false)
	// Velocities and forces are only ever touched by the owner.
	vel := m.NewArray1D("vel", n, 4, false)
	// The Splash variant accumulates reaction forces into a shared array
	// under (modeled) per-molecule locks instead of a reduction.
	var sharedForce *rt.Array1D
	if c.Splash {
		sharedForce = m.NewArray1D("force", n, 4, false)
	}

	// Initial lattice with thermal jitter (synthetic equivalent of the
	// SPLASH input deck; same size and interaction structure).
	side := int(math.Ceil(math.Cbrt(float64(n))))
	rng := rand.New(rand.NewSource(c.Seed))
	initX := make([]float64, 3*n)
	initV := make([]float64, 3*n)
	for i := 0; i < n; i++ {
		ix, iy, iz := i%side, (i/side)%side, i/(side*side)
		initX[3*i+0] = (float64(ix) + 0.5 + 0.1*rng.Float64()) * box / float64(side)
		initX[3*i+1] = (float64(iy) + 0.5 + 0.1*rng.Float64()) * box / float64(side)
		initX[3*i+2] = (float64(iz) + 0.5 + 0.1*rng.Float64()) * box / float64(side)
		initV[3*i+0] = 0.1 * (rng.Float64() - 0.5)
		initV[3*i+1] = 0.1 * (rng.Float64() - 0.5)
		initV[3*i+2] = 0.1 * (rng.Float64() - 0.5)
	}

	const (
		dt     = 1e-4
		cutoff = box / 2
	)
	cut2 := cutoff * cutoff

	energies := make([]float64, m.Cfg.Nodes)
	err := m.Run(func(w *rt.Worker) {
		lo, hi := pos.MyRange(w)
		// Owner-local state (private in the C** program).
		force := make([]float64, 3*n) // private force accumulator
		myVel := make([]float64, 3*(hi-lo))
		var potential float64

		// Initialization phase: owners write their molecules.
		w.Phase(PhaseAdvance, func() {
			for i := lo; i < hi; i++ {
				w.WriteF64s(pos.At(i, 0), initX[3*i:3*i+3])
				w.WriteF64s(vel.At(i, 0), initV[3*i:3*i+3])
				copy(myVel[3*(i-lo):], initV[3*i:3*i+3])
			}
			w.Compute(sim.Time(hi-lo) * c.CostAdvance)
		})

		half := n / 2
		for step := 0; step < c.Steps; step++ {
			// Force phase: half-shell pair interactions. Every following
			// molecule's position is read (the cutoff test needs it),
			// which is the paper's static n/2 producer-consumer pattern.
			for i := range force {
				force[i] = 0
			}
			w.Phase(PhaseForces, func() {
				for i := lo; i < hi; i++ {
					var pi, pj [3]float64
					w.ReadF64s(pos.At(i, 0), pi[:])
					for k := 1; k <= half; k++ {
						j := (i + k) % n
						w.ReadF64s(pos.At(j, 0), pj[:])
						dx, dy, dz := pi[0]-pj[0], pi[1]-pj[1], pi[2]-pj[2]
						r2 := dx*dx + dy*dy + dz*dz
						if r2 < cut2 && r2 > 0 {
							// Softened inverse-square pair force.
							inv := 1 / (r2 + 1e-4)
							f := inv * inv
							force[3*i+0] += f * dx
							force[3*i+1] += f * dy
							force[3*i+2] += f * dz
							force[3*j+0] -= f * dx
							force[3*j+1] -= f * dy
							force[3*j+2] -= f * dz
							potential += inv
						}
					}
					w.Compute(sim.Time(half) * c.CostPair)
				}
			})

			var total []float64
			if c.Splash {
				// Splash-2 style: push accumulated contributions into the
				// shared force array with atomic (lock-protected) updates,
				// then owners read back their molecules' totals. Updates
				// are batched SplashLockBatch molecules per lock.
				w.Phase(PhaseForces+10, func() {
					for j := 0; j < n; j++ {
						fx, fy, fz := force[3*j], force[3*j+1], force[3*j+2]
						if fx == 0 && fy == 0 && fz == 0 {
							continue
						}
						w.AtomicAddF64(sharedForce.At(j, 0), fx)
						w.AtomicAddF64(sharedForce.At(j, 1), fy)
						w.AtomicAddF64(sharedForce.At(j, 2), fz)
						if j%c.SplashLockBatch == 0 {
							w.Compute(2 * sim.Microsecond) // lock handoff
						}
					}
				})
				total = make([]float64, 3*(hi-lo))
				w.Phase(PhaseCorrect+10, func() {
					for i := lo; i < hi; i++ {
						for d := 0; d < 3; d++ {
							a := sharedForce.At(i, d)
							total[3*(i-lo)+d] = w.ReadF64(a)
							w.WriteF64(a, 0) // reset for the next step
						}
					}
				})
			} else {
				// Combine private force arrays (language-level reduction).
				total = w.CombineArrays(force, 3*lo, 3*hi)
			}

			// Correct phase: owners update velocities (local state).
			w.Phase(PhaseCorrect, func() {
				for i := lo; i < hi; i++ {
					for d := 0; d < 3; d++ {
						myVel[3*(i-lo)+d] += dt * total[3*(i-lo)+d]
					}
				}
				w.Compute(sim.Time(hi-lo) * c.CostAdvance)
			})

			// Advance phase: owners move their molecules (the producer
			// side of the repetitive pattern).
			w.Phase(PhaseAdvance, func() {
				for i := lo; i < hi; i++ {
					for d := 0; d < 3; d++ {
						a := pos.At(i, d)
						x := w.ReadF64(a) + dt*myVel[3*(i-lo)+d]
						// Periodic box.
						if x < 0 {
							x += box
						} else if x >= box {
							x -= box
						}
						w.WriteF64(a, x)
					}
				}
				w.Compute(sim.Time(hi-lo) * c.CostAdvance)
			})
		}

		var e float64
		for _, v := range myVel {
			e += v * v
		}
		energies[w.ID] = e + potential
	})
	if err != nil {
		return &Result{Machine: m}, fmt.Errorf("water: %w", err)
	}

	var energy float64
	for _, e := range energies {
		energy += e
	}
	return &Result{
		Machine:   m,
		Breakdown: m.Breakdown(),
		Counters:  m.Counters(),
		Energy:    energy,
	}, nil
}
