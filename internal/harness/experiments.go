package harness

import (
	_ "embed"
	"fmt"
	"sync"

	"presto/internal/apps/adaptive"
	"presto/internal/apps/barnes"
	"presto/internal/apps/unstructured"
	"presto/internal/apps/water"
	"presto/internal/compiler"
	"presto/internal/lang"
	"presto/internal/network"
	"presto/internal/pool"
	"presto/internal/rt"
)

// adaptiveCfg builds one Adaptive configuration.
func adaptiveCfg(o Options, proto rt.ProtocolKind, bs int) adaptive.Config {
	c := adaptive.Config{Machine: o.machine(rt.Config{Nodes: 32, BlockSize: bs, Protocol: proto})}
	if o.Scale == Quick {
		c.Machine.Nodes = 16
		c.Size = 64
		c.Iters = 30
		c.RefineEvery = 4
	}
	return c
}

func barnesCfg(o Options, proto rt.ProtocolKind, bs int, spmd bool) barnes.Config {
	c := barnes.Config{Machine: o.machine(rt.Config{Nodes: 32, BlockSize: bs, Protocol: proto}), SPMD: spmd}
	if o.Scale == Quick {
		c.Machine.Nodes = 16
		c.Bodies = 2048
	}
	return c
}

func waterCfg(o Options, proto rt.ProtocolKind, bs int, splash bool) water.Config {
	c := water.Config{Machine: o.machine(rt.Config{Nodes: 32, BlockSize: bs, Protocol: proto}), Splash: splash}
	if o.Scale == Quick {
		c.Machine.Nodes = 16
		c.Molecules = 256
		c.Steps = 8
	}
	return c
}

func init() {
	Register(Experiment{
		ID:    "table1",
		Title: "Benchmark applications (Table 1)",
		Paper: "Adaptive: 128x128 mesh, 100 iterations; Barnes: 16384 bodies, 3 iterations; Water: 512 molecules, 20 iterations.",
		Run:   runTable1,
	})
	Register(Experiment{
		ID:    "figure4",
		Title: "Compiler analysis of the Barnes main loop (Figure 4)",
		Paper: "Access summaries annotate the CFG; directives cover 4 parallel phases; the home-only center-of-mass loop gets a single hoisted directive.",
		Run:   runFigure4,
	})
	Register(Experiment{
		ID:    "figure5",
		Title: "Adaptive execution time, 4 versions (Figure 5)",
		Paper: "Pre-sending cuts shared-data wait and synchronization; best optimized is ~1.56x the best unoptimized; larger blocks help the unoptimized version but make pre-send less effective.",
		Run:   runFigure5,
	})
	Register(Experiment{
		ID:    "figure6",
		Title: "Barnes execution time, 5 versions (Figure 6)",
		Paper: "Optimization cuts remote wait at 32B blocks, but Barnes's spatial locality lets the unoptimized 1024B version run marginally faster than the optimized versions; both 1024B versions are about as fast as the hand-optimized SPMD.",
		Run:   runFigure6,
	})
	Register(Experiment{
		ID:    "figure7",
		Title: "Water execution time, 3 versions (Figure 7)",
		Paper: "Optimization reduces shared-memory wait but overall improvement is small (~1.05x); the optimized version is ~1.2x faster than the Splash shared-memory version.",
		Run:   runFigure7,
	})
	Register(Experiment{
		ID:    "inspector",
		Title: "Predictive protocol vs Inspector-Executor (related work, §2)",
		Paper: "The predictive approach needs no inspector/executor code and its incremental schedules handle adaptive applications; CHAOS-style inspection must re-run whenever the indirection changes.",
		Run:   runInspector,
	})
	Register(Experiment{
		ID:    "sweep",
		Title: "Block-size sensitivity (discussion, §5.4)",
		Paper: "The predictive protocol works best at small blocks; unoptimized versions exploit large blocks.",
		Run:   runSweep,
	})
	Register(Experiment{
		ID:    "platforms",
		Title: "Platform tradeoff: CM-5 vs network of workstations vs hardware DSM (§5.4)",
		Paper: "The technique is beneficial on machines with significant remote access latency (Blizzard/CM-5, networks of workstations); the tradeoff is different for hardware-assisted DSMs with smaller latencies.",
		Run:   runPlatforms,
	})
	Register(Experiment{
		ID:    "ablate-coalesce",
		Title: "Ablation: pre-send bulk coalescing (§3.4)",
		Paper: "Coalescing neighboring blocks amortizes message startup costs over large messages.",
		Run:   runAblateCoalesce,
	})
	Register(Experiment{
		ID:    "ablate-conflicts",
		Title: "Extension: conflict-block anticipation (§3.4 future work)",
		Paper: "Conflict blocks are not pre-sent; anticipating their first stable state is the paper's suggested extension.",
		Run:   runAblateConflicts,
	})
	Register(Experiment{
		ID:    "ablate-flush",
		Title: "Extension: schedule flushing under deletions (§3.3)",
		Paper: "Incremental schedules do not track deletions; patterns with many deletions need periodic schedule rebuilds.",
		Run:   runAblateFlush,
	})
}

func runTable1(o Options) (*Result, error) {
	res := &Result{ID: "table1", Title: "Benchmark applications"}
	type row struct{ name, desc, data string }
	rows := []row{
		{"Adaptive", "Structured adaptive mesh", "128x128 mesh, 100 iterations"},
		{"Barnes", "Gravitational N-body simulation", "16384 bodies, 3 iterations"},
		{"Water", "Molecular dynamics", "512 molecules, 20 iterations"},
	}
	for _, r := range rows {
		res.AddNote(fmt.Sprintf("%-9s %-34s %s", r.name, r.desc, r.data))
	}
	if o.Scale == Quick {
		res.AddNote("(quick scale runs 64x64/30, 2048 bodies, 256 molecules on 16 nodes)")
	}
	return res, nil
}

// barnesCstar is the cstar source of the Barnes main loop that figure 4
// annotates.
//
//go:embed barnes.cstar
var barnesCstar string

func runFigure4(Options) (*Result, error) {
	prog, err := lang.Parse(barnesCstar)
	if err != nil {
		return nil, err
	}
	a, err := compiler.Analyze(prog)
	if err != nil {
		return nil, err
	}
	res := &Result{ID: "figure4", Title: "Compiler analysis of Barnes"}
	res.AddNote(a.Report())
	return res, nil
}

// figRun is one figure configuration: an application, its variant
// (Barnes SPMD or Water Splash), protocol and block size. A simulation is
// a pure function of it and the Options.
type figRun struct {
	app     string
	variant bool
	proto   rt.ProtocolKind
	bs      int
}

// figVersion is one figure row: its label and the run behind it.
type figVersion struct {
	label string
	run   figRun
}

// figure5Versions are Adaptive's four bars: stache vs predictive at 32B
// and 256B.
var figure5Versions = []figVersion{
	{"C** unopt (32)", figRun{"adaptive", false, rt.ProtoStache, 32}},
	{"C** opt (32)", figRun{"adaptive", false, rt.ProtoPredictive, 32}},
	{"C** unopt (256)", figRun{"adaptive", false, rt.ProtoStache, 256}},
	{"C** opt (256)", figRun{"adaptive", false, rt.ProtoPredictive, 256}},
}

// figure6Versions are Barnes's five bars, including the hand-optimized
// SPMD write-update baseline.
var figure6Versions = []figVersion{
	{"C** unopt (32)", figRun{"barnes", false, rt.ProtoStache, 32}},
	{"C** opt (32)", figRun{"barnes", false, rt.ProtoPredictive, 32}},
	{"C** unopt (1024)", figRun{"barnes", false, rt.ProtoStache, 1024}},
	{"C** opt (1024)", figRun{"barnes", false, rt.ProtoPredictive, 1024}},
	{"SPMD write-update (1024)", figRun{"barnes", true, rt.ProtoUpdate, 1024}},
}

// figure7Blocks are the block sizes figure 7 tries for each Water version.
var figure7Blocks = []int{32, 128, 256}

// figure7Versions sweeps each Water version over figure7Blocks, one
// version's block sizes next to each other.
func figure7Versions() []figVersion {
	var out []figVersion
	for _, v := range []struct {
		prefix string
		proto  rt.ProtocolKind
		splash bool
	}{
		{"C** opt", rt.ProtoPredictive, false},
		{"C** unopt", rt.ProtoStache, false},
		{"Splash", rt.ProtoStache, true},
	} {
		for _, bs := range figure7Blocks {
			out = append(out, figVersion{fmt.Sprintf("%s (%d)", v.prefix, bs), figRun{"water", v.splash, v.proto, bs}})
		}
	}
	return out
}

// simulate runs one figure configuration. record turns on the profiler
// and the communication recorder a calibration distills.
func (o Options) simulate(r figRun, record bool) (*rt.Machine, error) {
	stamp := func(c *rt.Config) {
		if record {
			c.Profile, c.Record = true, true
		}
	}
	switch r.app {
	case "adaptive":
		c := adaptiveCfg(o, r.proto, r.bs)
		stamp(&c.Machine)
		res, err := adaptive.Run(c)
		if err != nil {
			return nil, err
		}
		return res.Machine, nil
	case "barnes":
		c := barnesCfg(o, r.proto, r.bs, r.variant)
		stamp(&c.Machine)
		res, err := barnes.Run(c)
		if err != nil {
			return nil, err
		}
		return res.Machine, nil
	case "water":
		c := waterCfg(o, r.proto, r.bs, r.variant)
		stamp(&c.Machine)
		res, err := water.Run(c)
		if err != nil {
			return nil, err
		}
		return res.Machine, nil
	}
	return nil, fmt.Errorf("no figure application %q", r.app)
}

// addRows appends one row per version to res: simulated, or under
// Options.Predict extrapolated from one calibration per (application,
// variant, protocol). Simulated rows run side by side on internal/pool,
// each written to its own index, and the lowest-index error is the one
// returned, so output and error text do not depend on the pool's width.
func (o Options) addRows(res *Result, versions []figVersion) error {
	if o.Predict {
		p := predictor{}
		for _, v := range versions {
			cal, err := p.calibration(o, v.run)
			if err != nil {
				return err
			}
			row, err := predictedRow(cal, v.label, v.run.bs)
			if err != nil {
				return err
			}
			res.Rows = append(res.Rows, row)
		}
		predictNote(res, len(p))
		return nil
	}
	rows := make([]Row, len(versions))
	errs := make([]error, len(versions))
	var alone sync.RWMutex
	pool.Each(len(versions), func(i int) {
		// Two rules keep the host's peak memory flat. A Barnes row runs
		// alone: at quick scale it holds up to 15 MB live and allocates
		// up to 40 MB, three to ten times an Adaptive or Water row. Under
		// the windowed engine every row runs alone, since that engine
		// spreads one simulation over the cores itself.
		v := versions[i]
		lock, unlock := alone.RLock, alone.RUnlock
		if o.Machine.Engine == rt.EngineParallel || v.run.app == "barnes" {
			lock, unlock = alone.Lock, alone.Unlock
		}
		lock()
		defer unlock()
		if rows[i], errs[i] = o.row(v); errs[i] != nil {
			errs[i] = fmt.Errorf("%s: %w", v.label, errs[i])
		}
	})
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	res.Rows = append(res.Rows, rows...)
	return nil
}

// machineRow is a finished machine's row.
func machineRow(label string, m *rt.Machine) Row {
	return Row{Label: label, BlockSize: m.Cfg.BlockSize, B: m.Breakdown(), C: m.Counters(), Phases: m.PhaseBreakdown()}
}

func runFigure5(o Options) (*Result, error) {
	res := &Result{ID: "figure5", Title: "Adaptive, 4 versions (32 processors)"}
	if err := o.addRows(res, figure5Versions); err != nil {
		return nil, err
	}
	bestOpt, _ := res.Best("C** opt")
	bestUnopt, _ := res.Best("C** unopt")
	res.AddNote("best optimized (%s) is %.2fx faster than best unoptimized (%s); paper: 1.56x",
		bestOpt.Label, ratio(bestUnopt.Total(), bestOpt.Total()), bestUnopt.Label)
	o32, _ := res.Find("C** opt (32)")
	u32, _ := res.Find("C** unopt (32)")
	res.AddNote("at 32B blocks pre-send removes %.0f%% of remote-data wait and cuts synchronization from %v to %v",
		100*(1-ratio(o32.B.RemoteWait, u32.B.RemoteWait)), u32.B.Sync, o32.B.Sync)
	return res, nil
}

func runFigure6(o Options) (*Result, error) {
	res := &Result{ID: "figure6", Title: "Barnes, 5 versions (32 processors)"}
	if err := o.addRows(res, figure6Versions); err != nil {
		return nil, err
	}
	o32, _ := res.Find("C** opt (32)")
	u32, _ := res.Find("C** unopt (32)")
	u1024, _ := res.Find("C** unopt (1024)")
	res.AddNote("at 32B blocks pre-send removes %.0f%% of remote-data wait",
		100*(1-ratio(o32.B.RemoteWait, u32.B.RemoteWait)))
	res.AddNote("spatial locality: unopt (1024) runs %.2fx faster than opt (32) — the paper's crossover",
		ratio(o32.Total(), u1024.Total()))
	res.AddNote("the two 1024B versions and the hand-optimized SPMD are comparable (within a few percent)")
	return res, nil
}

func runFigure7(o Options) (*Result, error) {
	res := &Result{ID: "figure7", Title: "Water, 3 versions (32 processors)"}
	if err := o.addRows(res, figure7Versions()); err != nil {
		return nil, err
	}
	// The paper picks each version's best block size; keep the fastest
	// of each version's rows, labeled like the paper's "(256)".
	all := res.Rows
	res.Rows = nil
	for i := 0; i < len(all); i += len(figure7Blocks) {
		best := all[i]
		for _, r := range all[i+1 : i+len(figure7Blocks)] {
			if r.Total() < best.Total() {
				best = r
			}
		}
		res.Rows = append(res.Rows, best)
	}
	opt, _ := res.Best("C** opt")
	unopt, _ := res.Best("C** unopt")
	splash, _ := res.Best("Splash")
	res.AddNote("optimized is %.2fx faster than unoptimized (paper: 1.05x) and %.2fx faster than Splash (paper: 1.2x)",
		ratio(unopt.Total(), opt.Total()), ratio(splash.Total(), opt.Total()))
	return res, nil
}

// runInspector compares the three strategies on the Figure-3-style
// unstructured kernel, on a static mesh and on an adapting mesh.
func runInspector(o Options) (*Result, error) {
	res := &Result{ID: "inspector", Title: "Unstructured bipartite mesh: plain vs predictive vs inspector-executor"}
	base := unstructured.Config{
		Machine: o.machine(rt.Config{Nodes: 32, BlockSize: 32}),
		Primal:  4096, Dual: 4096, Edges: 6, Iters: 24,
	}
	if o.Scale == Quick {
		base.Machine.Nodes = 16
		base.Primal, base.Dual = 1024, 1024
		base.Iters = 12
	}
	for _, mesh := range []struct {
		tag   string
		adapt int
	}{{"static", 0}, {"adaptive", 3}} {
		for _, strat := range []unstructured.Strategy{unstructured.Plain, unstructured.Predictive, unstructured.InspectorExecutor} {
			cfg := base
			cfg.Strategy = strat
			cfg.AdaptEvery = mesh.adapt
			r, err := unstructured.Run(cfg)
			if err != nil {
				return nil, err
			}
			res.Rows = append(res.Rows, machineRow(fmt.Sprintf("%s mesh, %s", mesh.tag, strat), r.Machine))
		}
	}
	ps, _ := res.Find("static mesh, predictive")
	is, _ := res.Find("static mesh, inspector")
	pa, _ := res.Find("adaptive mesh, predictive")
	ia, _ := res.Find("adaptive mesh, inspector")
	res.AddNote("static mesh: inspector-executor/predictive total ratio %.2f — comparable, but the predictive version needs no inspector/executor code (the paper's first §2 distinction)",
		ratio(is.Total(), ps.Total()))
	res.AddNote("adaptive mesh: inspector re-analysis adds %v of compute per run (vs %v static); the predictive protocol's incremental schedules absorb the same churn in-protocol (ratio %.2f)",
		ia.B.Compute-is.B.Compute, is.B.Compute, ratio(ia.Total(), pa.Total()))
	return res, nil
}

func runSweep(o Options) (*Result, error) {
	res := &Result{ID: "sweep", Title: "Block-size sweep (Water), unopt vs opt"}
	var versions []figVersion
	for _, bs := range []int{32, 64, 128, 256, 1024} {
		versions = append(versions,
			figVersion{fmt.Sprintf("water unopt (%d)", bs), figRun{"water", false, rt.ProtoStache, bs}},
			figVersion{fmt.Sprintf("water opt (%d)", bs), figRun{"water", false, rt.ProtoPredictive, bs}})
	}
	if err := o.addRows(res, versions); err != nil {
		return nil, err
	}
	res.AddNote("pre-send benefit is largest at the smallest blocks; large blocks close the gap by exploiting spatial locality (paper §5.4)")
	return res, nil
}

// runPlatforms runs Water opt/unopt under three interconnect models and
// reports how the predictive protocol's benefit scales with remote
// latency.
func runPlatforms(o Options) (*Result, error) {
	res := &Result{ID: "platforms", Title: "Water opt vs unopt across platforms (32B blocks)"}
	platforms := []struct {
		tag string
		net func() *network.Params
	}{
		{"NOW", network.NOW},
		{"CM-5", network.CM5},
		{"hw-DSM", network.HardwareDSM},
	}
	type pair struct{ unopt, opt Row }
	pairs := map[string]pair{}
	for _, pl := range platforms {
		var pr pair
		for _, v := range []struct {
			label string
			proto rt.ProtocolKind
		}{{"unopt", rt.ProtoStache}, {"opt", rt.ProtoPredictive}} {
			cfg := waterCfg(o, v.proto, 32, false)
			cfg.Machine.Net = pl.net()
			r, err := water.Run(cfg)
			if err != nil {
				return nil, err
			}
			row := machineRow(fmt.Sprintf("%s %s", pl.tag, v.label), r.Machine)
			res.Rows = append(res.Rows, row)
			if v.label == "unopt" {
				pr.unopt = row
			} else {
				pr.opt = row
			}
		}
		pairs[pl.tag] = pr
	}
	for _, pl := range platforms {
		pr := pairs[pl.tag]
		res.AddNote("%-6s speedup %.2fx (remote wait %v -> %v)", pl.tag,
			ratio(pr.unopt.Total(), pr.opt.Total()), pr.unopt.B.RemoteWait, pr.opt.B.RemoteWait)
	}
	return res, nil
}

func runAblateCoalesce(o Options) (*Result, error) {
	res := &Result{ID: "ablate-coalesce", Title: "Pre-send coalescing on/off (Adaptive, 32B)"}
	for _, v := range []struct {
		label string
		off   bool
	}{{"coalescing on", false}, {"coalescing off", true}} {
		cfg := adaptiveCfg(o, rt.ProtoPredictive, 32)
		cfg.Machine.NoCoalesce = v.off
		r, err := adaptive.Run(cfg)
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, machineRow(v.label, r.Machine))
	}
	on := res.Rows[0]
	off := res.Rows[1]
	res.AddNote("coalescing sends %d bulk messages and cuts pre-send time %.2fx (%v -> %v)",
		on.C.BulkMsgs, ratio(off.B.Presend, on.B.Presend), off.B.Presend, on.B.Presend)
	return res, nil
}

// runAblateConflicts uses a synthetic false-sharing kernel (one node
// repeatedly writes the left half of each block while another reads the
// right half in the same phase — the paper's conflict scenario, §3.3).
func runAblateConflicts(o Options) (*Result, error) {
	res := &Result{ID: "ablate-conflicts", Title: "Conflict anticipation off/on (false-sharing kernel, 64B)"}
	iters := 16
	blocks := 64
	if o.Scale == Quick {
		iters, blocks = 10, 32
	}
	run := func(label string, anticipate bool) error {
		m := rt.New(o.machine(rt.Config{Nodes: 2, BlockSize: 64, Protocol: rt.ProtoPredictive, AnticipateConflicts: anticipate}))
		// 8 elements per 64B block; all blocks homed on node 0.
		arr := m.NewArray1D("x", blocks*8, 1, false)
		err := m.Run(func(w *rt.Worker) {
			for it := 0; it < iters; it++ {
				w.Phase(1, func() {
					for b := 0; b < blocks/2; b++ {
						if w.ID == 0 {
							w.WriteF64(arr.At(b*8, 0), float64(it)) // left half
						} else {
							w.ReadF64(arr.At(b*8+4, 0)) // right half: false sharing
						}
					}
				})
			}
		})
		if err != nil {
			return err
		}
		res.Rows = append(res.Rows, machineRow(label, m))
		return nil
	}
	if err := run("conflicts not pre-sent (paper)", false); err != nil {
		return nil, err
	}
	if err := run("anticipate first stable state", true); err != nil {
		return nil, err
	}
	res.AddNote("conflict entries recorded: %d; anticipation changes faults %d -> %d",
		res.Rows[0].C.Conflicts,
		res.Rows[0].C.ReadFaults+res.Rows[0].C.WriteFaults,
		res.Rows[1].C.ReadFaults+res.Rows[1].C.WriteFaults)
	return res, nil
}

// runAblateFlush exercises schedule flushing on a synthetic
// deletion-heavy pattern: consumers rotate away from previously read
// blocks, so stale schedule entries cause redundant pre-sends unless
// flushed.
func runAblateFlush(o Options) (*Result, error) {
	res := &Result{ID: "ablate-flush", Title: "Schedule flushing under a rotating (deletion-heavy) pattern"}
	iters := 24
	elems := 512
	nodes := 16
	if o.Scale == Quick {
		iters, elems, nodes = 16, 256, 8
	}
	run := func(label string, flushEvery, policyEvery int) error {
		m := rt.New(o.machine(rt.Config{Nodes: nodes, BlockSize: 32, Protocol: rt.ProtoPredictive, FlushEvery: policyEvery}))
		arr := m.NewArray1D("x", elems, 1, false)
		err := m.Run(func(w *rt.Worker) {
			lo, hi := arr.MyRange(w)
			for it := 0; it < iters; it++ {
				w.Phase(1, func() {
					for i := lo; i < hi; i++ {
						w.WriteF64(arr.At(i, 0), float64(it+i))
					}
				})
				// The read window rotates: old entries become useless.
				start := (it / 4) * (elems / 8)
				w.Phase(2, func() {
					for k := 0; k < elems/8; k++ {
						w.ReadF64(arr.At((start+k)%elems, 0))
					}
				})
				if flushEvery > 0 && (it+1)%flushEvery == 0 {
					w.FlushSchedules(-1)
				}
			}
		})
		if err != nil {
			return err
		}
		res.Rows = append(res.Rows, machineRow(label, m))
		return nil
	}
	if err := run("never flush (paper default)", 0, 0); err != nil {
		return nil, err
	}
	if err := run("app flush every 4 iterations", 4, 0); err != nil {
		return nil, err
	}
	if err := run("protocol FlushEvery=4 policy", 0, 4); err != nil {
		return nil, err
	}
	nf := res.Rows[0]
	fl := res.Rows[1]
	po := res.Rows[2]
	res.AddNote("without flushing, stale entries keep %d blocks pre-sent; app-directed flushing drops pre-sends to %d, the in-protocol policy to %d",
		nf.C.PresendsSent, fl.C.PresendsSent, po.C.PresendsSent)
	return res, nil
}
