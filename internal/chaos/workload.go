package chaos

import (
	"fmt"
	"sort"

	"presto/internal/causal"
	"presto/internal/check"
	"presto/internal/memory"
	"presto/internal/network"
	"presto/internal/rt"
	"presto/internal/sim"
)

// Fingerprint condenses one run into the values the differential oracle
// compares. Every field is deterministic for a deterministic simulation,
// so engine comparisons assert full equality.
type Fingerprint struct {
	Err        string          `json:"err,omitempty"`
	ElapsedNS  int64           `json:"elapsed_ns"`
	Kernel     sim.KernelStats `json:"kernel"`
	Counters   rt.Counters     `json:"counters"`
	MemHash    uint64          `json:"mem_hash"`
	StateHash  uint64          `json:"state_hash"`
	Violations []string        `json:"violations,omitempty"`
}

// Clean reports a run that completed without error and with every
// invariant intact.
func (f Fingerprint) Clean() bool { return f.Err == "" && len(f.Violations) == 0 }

func (f Fingerprint) String() string {
	if f.Err != "" {
		return "error: " + f.Err
	}
	s := fmt.Sprintf("elapsed=%dns events=%d msgs=%d mem=%016x",
		f.ElapsedNS, f.Kernel.Events, f.Counters.MsgsSent, f.MemHash)
	if n := len(f.Violations); n > 0 {
		s += fmt.Sprintf(" violations=%d", n)
	}
	return s
}

// diff lists the fields on which two fingerprints disagree (engine
// divergence reporting).
func (f Fingerprint) diff(g Fingerprint) []string {
	var out []string
	add := func(field string, a, b any) {
		out = append(out, fmt.Sprintf("%s: %v vs %v", field, a, b))
	}
	if f.Err != g.Err {
		add("err", f.Err, g.Err)
	}
	if f.ElapsedNS != g.ElapsedNS {
		add("elapsed_ns", f.ElapsedNS, g.ElapsedNS)
	}
	if f.Kernel != g.Kernel {
		add("kernel", f.Kernel, g.Kernel)
	}
	if f.Counters != g.Counters {
		add("counters", f.Counters, g.Counters)
	}
	if f.MemHash != g.MemHash {
		add("mem_hash", fmt.Sprintf("%016x", f.MemHash), fmt.Sprintf("%016x", g.MemHash))
	}
	if f.StateHash != g.StateHash {
		add("state_hash", fmt.Sprintf("%016x", f.StateHash), fmt.Sprintf("%016x", g.StateHash))
	}
	if len(f.Violations) != len(g.Violations) {
		add("violations", len(f.Violations), len(g.Violations))
	} else {
		for i := range f.Violations {
			if f.Violations[i] != g.Violations[i] {
				add("violation", f.Violations[i], g.Violations[i])
				break
			}
		}
	}
	return out
}

// Execute runs the spec once under one run configuration and fingerprints
// the outcome. The spec supplies the machine shape — Nodes, BlockSize and
// the jittered interconnect overwrite those fields of cfg — and cfg
// supplies everything else: protocol, engine, the reference oracles and
// the MaxEvents livelock guard (a broken protocol may spin). An explicit
// worker count is clamped to the spec's lane count (a clustered
// interconnect coarsens lanes to node groups), so band tests can sweep
// fixed worker counts across arbitrary derived shapes.
func Execute(s Spec, cfg rt.Config) Fingerprint {
	fp, _ := runMachine(s, cfg)
	return fp
}

// ExecuteProfiled is Execute with the causal profiler enabled. It
// returns the fingerprint — which must equal Execute's, since profiling
// may not perturb the simulation — plus the assembled profile, already
// checked against the attribution invariant (per-node bucket sums equal
// total simulated time; serial critical-path length equals elapsed).
func ExecuteProfiled(s Spec, cfg rt.Config) (Fingerprint, *causal.Profile, error) {
	cfg.Profile = true
	fp, m := runMachine(s, cfg)
	if m == nil {
		return fp, nil, fmt.Errorf("chaos: profiled run failed: %s", fp.Err)
	}
	p, err := m.Profile("chaos")
	if err != nil {
		return fp, nil, err
	}
	if err := p.Validate(); err != nil {
		return fp, nil, err
	}
	return fp, p, nil
}

// ExecuteCalibration runs the spec once with both the causal profiler
// and the communication recorder enabled and returns the machine, ready
// to hand to predict.Calibrate. The fingerprint is discarded — callers
// wanting differential checks should run Execute separately; a
// calibration run is observation-identical to the plain run anyway.
func ExecuteCalibration(s Spec, cfg rt.Config) (*rt.Machine, error) {
	cfg.Profile, cfg.Record = true, true
	fp, m := runMachine(s, cfg)
	if m == nil {
		return nil, fmt.Errorf("chaos: calibration run failed: %s", fp.Err)
	}
	return m, nil
}

// runMachine executes the spec and returns the machine alongside the
// fingerprint (nil when the run itself errored).
func runMachine(s Spec, cfg rt.Config) (Fingerprint, *rt.Machine) {
	base, err := network.Preset(s.Net)
	if err != nil {
		panic(err) // derivation only emits known presets
	}
	net := base.WithJitter(s.JitterPct, uint64(s.Seed))
	cfg.Nodes, cfg.BlockSize, cfg.Net = s.Nodes, s.BlockSize, net
	cfg.Workers = min(cfg.Workers, cfg.Lanes())
	m := rt.New(cfg)
	wl := buildWorkload(m, s)
	var fp Fingerprint
	if err := m.Run(wl.program(s)); err != nil {
		fp.Err = err.Error()
		return fp, nil
	}
	fp.ElapsedNS = int64(m.Elapsed())
	fp.Kernel = m.Kernel.Stats()
	fp.Counters = m.Counters()
	fp.MemHash = m.HashMemory()
	fp.StateHash = check.StateHash(m)
	for _, v := range check.Machine(m) {
		fp.Violations = append(fp.Violations, v.String())
	}
	fp.Violations = append(fp.Violations, check.Accounting(m)...)
	// Violations accumulate home-by-home; sort into one canonical order so
	// fingerprints of identical runs compare equal.
	sort.Strings(fp.Violations)
	return fp, m
}

// workload holds the spec's shared aggregates on one machine.
type workload struct {
	main   *rt.Array1D // produce/consume partitions (padding per spec)
	shared *rt.Array1D // unpadded: conflict and migrate targets
	acc    *rt.Array1D // accumulate targets
	ptrs   *rt.Array1D // one block-padded pointer slot per node
	arena  *rt.Arena
}

// arenaSegBytes sizes each node's arena segment: worst case every phase
// of every iteration allocates Count block-aligned objects
// (8×6×6 allocations × ≤(256+8) bytes ≈ 76 KiB at ScaleLong bounds).
const arenaSegBytes = 128 * 1024

func buildWorkload(m *rt.Machine, s Spec) *workload {
	wl := &workload{
		main:   m.NewArray1D("chaos/main", s.Elems, 1, s.Pad),
		shared: m.NewArray1D("chaos/shared", s.Elems, 1, false),
		acc:    m.NewArray1D("chaos/acc", max(4, s.Nodes), 1, false),
		ptrs:   m.NewArray1D("chaos/ptrs", s.Nodes, 1, true),
	}
	if s.UseArena {
		wl.arena = m.NewArena("chaos/arena", int64(s.Nodes)*arenaSegBytes)
	}
	return wl
}

// val is the deterministic value written at (iteration, phase, element).
// Values are integer-valued float64s so accumulation sums are exact and
// order-independent — final memory stays protocol-independent.
func val(seed int64, it, pi, i int) float64 {
	r := rng{s: uint64(seed) ^ uint64(it)<<40 ^ uint64(pi)<<20 ^ uint64(i)}
	return float64(r.next() % (1 << 20))
}

// program returns the SPMD body executing the spec's phase program.
func (wl *workload) program(s Spec) rt.Program {
	return func(w *rt.Worker) {
		for it := 0; it < s.Iters; it++ {
			for pi, ph := range s.Phases {
				pi, ph, it := pi, ph, it
				if ph.Kind == PhaseBroadcast {
					// Two compiler phases: owners refresh their partition,
					// then every node reads every partition. The read half
					// takes a distinct stable id past the spec's phase
					// range so its learned schedule (all nodes as readers
					// of each home) stays separate from the write half's.
					w.Phase(pi, func() { wl.bcastUpdate(w, s, ph, pi, it) })
					w.Phase(len(s.Phases)+pi, func() { wl.bcastRead(w, s, ph, it) })
					continue
				}
				w.Phase(pi, func() { wl.runPhase(w, s, ph, pi, it) })
			}
			if it == s.FlushIter {
				w.FlushSchedules(s.FlushID)
			}
		}
	}
}

// effStride rotates a phase's ring distance over iterations when the
// spec asks for pattern rotation (defeating a learned schedule).
func effStride(s Spec, ph PhaseSpec, it int) int {
	if s.Nodes < 2 {
		return 0
	}
	st := ph.Stride
	if s.RotEvery > 0 {
		st = 1 + (ph.Stride-1+it/s.RotEvery)%(s.Nodes-1)
	}
	return st
}

// bcastUpdate is the write half of PhaseBroadcast: each owner refreshes
// the elements of its partition that the read half will fetch, so every
// iteration invalidates the full reader set and the next read phase's
// pre-send walk owes a fresh copy to every node — several per remote
// group, which is what forces multi-part leader aggregates.
func (wl *workload) bcastUpdate(w *rt.Worker, s Spec, ph PhaseSpec, pi, it int) {
	per := s.Elems / s.Nodes
	lo := w.ID * per
	skew := rng{s: uint64(s.Seed) ^ uint64(it*31+pi*7+w.ID)}
	w.Compute(sim.Time(100+skew.next()%900) * sim.Nanosecond)
	for k := 0; k < ph.Count; k++ {
		i := lo + (k+it)%per
		w.WriteF64(wl.main.At(i, 0), val(s.Seed, it, pi, i))
	}
}

// bcastRead is the read half: every node reads the freshly written
// window of every partition (the all-read broadcast pattern).
func (wl *workload) bcastRead(w *rt.Worker, s Spec, ph PhaseSpec, it int) {
	per := s.Elems / s.Nodes
	for o := 0; o < s.Nodes; o++ {
		olo := o * per
		for k := 0; k < ph.Count; k++ {
			_ = w.ReadF64(wl.main.At(olo+(k+it)%per, 0))
		}
	}
}

func (wl *workload) runPhase(w *rt.Worker, s Spec, ph PhaseSpec, pi, it int) {
	per := s.Elems / s.Nodes
	lo := w.ID * per
	// Deterministic per-node compute skew: desynchronizes the nodes'
	// arrival at the contended accesses, widening the window for
	// overtaking-message races.
	skew := rng{s: uint64(s.Seed) ^ uint64(it*31+pi*7+w.ID)}
	w.Compute(sim.Time(100+skew.next()%900) * sim.Nanosecond)

	switch ph.Kind {
	case PhaseProduce:
		for k := 0; k < ph.Count; k++ {
			i := lo + (k*3+it)%per
			w.WriteF64(wl.main.At(i, 0), val(s.Seed, it, pi, i))
		}
	case PhaseConsume:
		tgt := (w.ID + effStride(s, ph, it)) % s.Nodes
		tlo := tgt * per
		for k := 0; k < ph.Count; k++ {
			i := tlo + (k*5+it)%per
			_ = w.ReadF64(wl.main.At(i, 0))
		}
	case PhaseConflict:
		// Interleaved single-writer elements sharing cache blocks:
		// Elems is a multiple of Nodes, so w.ID + k*Nodes stays in this
		// node's residue class and never collides with another writer.
		for k := 0; k < ph.Count; k++ {
			i := (w.ID + k*s.Nodes) % s.Elems
			w.WriteF64(wl.shared.At(i, 0), val(s.Seed, it, pi, i))
			_ = w.ReadF64(wl.shared.At((i+1)%s.Elems, 0))
		}
	case PhaseMigrate:
		writer := (it*max(1, effStride(s, ph, it)) + pi) % s.Nodes
		n := ph.Count
		if n > s.Elems {
			n = s.Elems
		}
		if w.ID == writer {
			for i := 0; i < n; i++ {
				w.WriteF64(wl.shared.At(i, 0), val(s.Seed, it, pi, i))
			}
		} else {
			for i := 0; i < n; i++ {
				_ = w.ReadF64(wl.shared.At(i, 0))
			}
		}
	case PhaseAccumulate:
		for k := 0; k < ph.Count; k++ {
			j := (k + it) % wl.acc.N
			w.AtomicAddF64(wl.acc.At(j, 0), float64(1+(w.ID+k)%7))
		}
	case PhaseArena:
		if wl.arena == nil {
			return
		}
		a := wl.arena.Alloc(w.ID, 8, s.Pad)
		w.WriteU64(a, uint64(val(s.Seed, it, pi, w.ID)))
		w.WriteU64(wl.ptrs.At(w.ID, 0), uint64(a))
		// Publication barrier: pointer chases below observe fully
		// published slots, keeping the read set deterministic.
		w.Barrier()
		tgt := (w.ID + effStride(s, ph, it)) % s.Nodes
		p := memory.Addr(w.ReadU64(wl.ptrs.At(tgt, 0)))
		_ = w.ReadU64(p)
	}
}
