package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	_ "embed"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"

	"presto/internal/apps/adaptive"
	"presto/internal/apps/barnes"
	"presto/internal/check"
	"presto/internal/compiler"
	"presto/internal/harness"
	"presto/internal/interp"
	"presto/internal/lang"
	"presto/internal/network"
	"presto/internal/predict"
	"presto/internal/rt"
	"presto/internal/serve"
	"presto/internal/sim"
)

// size is the input shape of a workload. A workload's full size is part of
// its definition and never changes; steadier numbers come from more passes.
type size struct {
	nodes int
	net   string // interconnect preset, "" = cm5
	// n and iters are bodies × steps (barnes), mesh edge × sweeps
	// (adaptive) or molecules × steps (cstar).
	n, iters int
	// experiments are harness experiment IDs (figures, serve).
	experiments []string
	// seeds is the chaos seed_range count (serve).
	seeds int
	// nodeCounts is how many node counts a predictor sweep covers; a sweep
	// is 7 block sizes × 4 networks × nodeCounts configurations.
	nodeCounts int
	// ops is how many times a pass repeats a short operation (warm replays,
	// sweeps). It is fixed, not timed, so that every pass allocates the same
	// amount and its memory high-water mark repeats.
	ops int
}

// workload is one named set of inputs the benchmark runs.
type workload struct {
	name        string
	full, smoke size
	// parallel marks the workload that is also run on the parallel engine.
	parallel bool
	run      func(p *pass) error
	// drivers are the layer drivers this workload's traced run owns.
	drivers []driver
}

// poolWorkers is the parallelism every multi-threaded part uses.
func poolWorkers() int { return min(runtime.NumCPU(), 4) }

var workloads = []*workload{
	{
		name:    "barnes32",
		full:    size{nodes: 32, n: 4096, iters: 3},
		smoke:   size{nodes: 8, n: 256, iters: 1},
		run:     runBarnes,
		drivers: accessDrivers,
	},
	{
		name:    "adaptive32-stache",
		full:    size{nodes: 32, n: 128, iters: 25},
		smoke:   size{nodes: 8, n: 16, iters: 4},
		run:     runAdaptive,
		drivers: handlerDrivers,
	},
	{
		name:     "kilonode",
		full:     size{nodes: 1024, net: "cluster:32x32", n: 512, iters: 1},
		smoke:    size{nodes: 64, net: "cluster:8x8", n: 64, iters: 1},
		parallel: true,
		run:      runBarnes,
		drivers:  scaleDrivers,
	},
	{
		name:    "figures-quick",
		full:    size{experiments: []string{"figure5", "figure6", "figure7", "sweep"}},
		smoke:   size{experiments: []string{"sweep"}},
		run:     runFigures,
		drivers: harnessDrivers,
	},
	{
		name:    "serve-cold",
		full:    size{seeds: 120, experiments: []string{"figure7"}},
		smoke:   size{seeds: 4},
		run:     runServe,
		drivers: serveDrivers,
	},
	{
		name:  "serve-warm",
		full:  size{seeds: 120, experiments: []string{"figure7"}, ops: 500},
		smoke: size{seeds: 4, ops: 3},
		run:   runServe,
	},
	{
		name:    "predict-sweep",
		full:    size{nodes: 16, n: 64, iters: 30, nodeCounts: 36, ops: 150},
		smoke:   size{nodes: 8, n: 16, iters: 8, nodeCounts: 1, ops: 3},
		run:     runPredict,
		drivers: predictDrivers,
	},
	{
		name:  "cstar-nsquared",
		full:  size{nodes: 32, n: 4096, iters: 10},
		smoke: size{nodes: 8, n: 64, iters: 2},
		run:   runCstar,
	},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

func workloadNames() []string {
	var out []string
	for _, w := range workloads {
		out = append(out, w.name)
	}
	return out
}

// machineConfig is the pass's machine: the workload's shape plus the engine
// the variant asks for.
func (p *pass) machineConfig(proto rt.ProtocolKind) (rt.Config, error) {
	c := rt.Config{Nodes: p.size.nodes, BlockSize: 32, Protocol: proto}
	if p.size.net != "" {
		np, err := network.Preset(p.size.net)
		if err != nil {
			return c, err
		}
		c.Net = np
		c.Aggregate = true
	}
	if p.variant.parallel {
		c.Engine = rt.EngineParallel
		c.Workers = poolWorkers()
		c.Profile = p.variant.flight
	}
	return c, nil
}

// tally sums what finished machines report, so that workloads made of many
// simulations report the same exact counts as single-machine ones.
type tally struct {
	kernel                    sim.KernelStats
	bd                        rt.Breakdown
	c                         rt.Counters
	hits, presendsIn, pfaults int64
}

func (t *tally) add(k sim.KernelStats, b rt.Breakdown, c rt.Counters, phases []rt.PhaseStat) {
	t.kernel.Events += k.Events
	t.kernel.Deliveries += k.Deliveries
	t.kernel.Resumes += k.Resumes
	t.kernel.MaxQueue = max(t.kernel.MaxQueue, k.MaxQueue)
	t.bd.Elapsed += b.Elapsed
	t.bd.Compute += b.Compute
	t.bd.RemoteWait += b.RemoteWait
	t.bd.Presend += b.Presend
	t.bd.Sync += b.Sync
	t.c.ReadFaults += c.ReadFaults
	t.c.WriteFaults += c.WriteFaults
	t.c.MsgsSent += c.MsgsSent
	t.c.BytesSent += c.BytesSent
	t.c.CrossMsgs += c.CrossMsgs
	t.c.AggMsgs += c.AggMsgs
	t.c.PresendsSent += c.PresendsSent
	t.c.PresendsSkipped += c.PresendsSkipped
	t.c.BulkMsgs += c.BulkMsgs
	t.c.Conflicts += c.Conflicts
	for _, ph := range phases {
		t.hits += ph.PresendHits
		t.presendsIn += ph.PresendsIn
		t.pfaults += ph.Faults()
	}
}

func (t *tally) addMachine(m *rt.Machine) {
	t.add(m.Kernel.Stats(), m.Breakdown(), m.Counters(), m.PhaseBreakdown())
}

func ratio(num, den int64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// counts renders the tally under the per-layer metric names.
func (t *tally) counts() map[string]float64 {
	return map[string]float64{
		"sim.events":            float64(t.kernel.Events),
		"sim.deliveries":        float64(t.kernel.Deliveries),
		"sim.resumes":           float64(t.kernel.Resumes),
		"sim.max_queue":         float64(t.kernel.MaxQueue),
		"rt.sim_elapsed_ns":     float64(t.bd.Elapsed),
		"rt.sim_compute_ns":     float64(t.bd.Compute),
		"rt.sim_remote_wait_ns": float64(t.bd.RemoteWait),
		"rt.sim_presend_ns":     float64(t.bd.Presend),
		"rt.sim_sync_ns":        float64(t.bd.Sync),
		"tempest.read_faults":   float64(t.c.ReadFaults),
		"tempest.write_faults":  float64(t.c.WriteFaults),
		"tempest.msgs":          float64(t.c.MsgsSent),
		"tempest.bytes":         float64(t.c.BytesSent),
		"tempest.cross_msgs":    float64(t.c.CrossMsgs),
		"tempest.agg_msgs":      float64(t.c.AggMsgs),
		"core.presends_sent":    float64(t.c.PresendsSent),
		"core.presends_skipped": float64(t.c.PresendsSkipped),
		"core.bulk_msgs":        float64(t.c.BulkMsgs),
		"core.conflicts":        float64(t.c.Conflicts),
		"core.presend_coverage": ratio(t.hits, t.hits+t.pfaults),
		"core.presend_accuracy": ratio(t.hits, t.presendsIn),
	}
}

// machine checks a finished machine's invariants, hashes its memory and
// reports its exact counts. It runs after the timed section.
func (p *pass) machine(m *rt.Machine) {
	_ = p.span("check.Machine", func() error {
		for _, v := range check.Machine(m) {
			p.fail("check.Machine: %s", v.String())
		}
		return nil
	})
	for _, v := range check.Accounting(m) {
		p.fail("check.Accounting: %s", v)
	}
	_ = p.span("rt.HashMemory", func() error {
		p.result("hash_memory", "%016x", m.HashMemory())
		return nil
	})
	var t tally
	t.addMachine(m)
	p.rep.Counts = t.counts()
	if ef := m.Kernel.EngineFlightRecord(); ef != nil {
		p.rep.Layer["sim.windows"] = float64(ef.Windows)
		p.rep.Layer["sim.solo_window_share"] = ratio(ef.SoloWindows, ef.Windows)
		p.rep.Layer["sim.events_per_window"] = ratio(ef.Events, ef.Windows)
		p.rep.Layer["sim.steals"] = float64(ef.Steals)
		p.rep.Layer["sim.window_open_s"] = float64(ef.OpenNS) / 1e9
		p.rep.Layer["sim.window_exec_s"] = float64(ef.ExecNS) / 1e9
		p.rep.Layer["sim.window_commit_s"] = float64(ef.CommitNS) / 1e9
	}
}

// runBarnes is barnes32 and kilonode: one barnes.Run per pass.
func runBarnes(p *pass) error {
	proto, spmd := rt.ProtoPredictive, false
	if p.size.net != "" {
		// The hand-optimised SPMD version on the write-update protocol is
		// what runs at 1024 nodes (dsmrun -spmd).
		proto, spmd = rt.ProtoUpdate, true
	}
	mc, err := p.machineConfig(proto)
	if err != nil {
		return err
	}
	cfg := barnes.Config{Machine: mc, Bodies: p.size.n, Iters: p.size.iters, Seed: p.spec.Seed, SPMD: spmd}
	var r *barnes.Result
	err = p.timed(func() error {
		return p.op("barnes.Run", func() (err error) { r, err = barnes.Run(cfg); return })
	})
	if err != nil {
		return err
	}
	p.result("checksum", "%.17g", r.Checksum)
	p.result("cells", "%d", r.Cells)
	p.machine(r.Machine)
	return nil
}

// runAdaptive is adaptive32-stache. The application has no random input, so
// the seed changes nothing here.
func runAdaptive(p *pass) error {
	mc, err := p.machineConfig(rt.ProtoStache)
	if err != nil {
		return err
	}
	cfg := adaptive.Config{Machine: mc, Size: p.size.n, Iters: p.size.iters, Seed: p.spec.Seed}
	var r *adaptive.Result
	err = p.timed(func() error {
		return p.op("adaptive.Run", func() (err error) { r, err = adaptive.Run(cfg); return })
	})
	if err != nil {
		return err
	}
	p.result("checksum", "%.17g", r.Checksum)
	p.result("refined", "%d", r.Refined)
	p.machine(r.Machine)
	return nil
}

func sha256Hex(b []byte) string { return fmt.Sprintf("%x", sha256.Sum256(b)) }

// checkGolden compares an experiment's CSV with the repository's golden
// file, when there is one. The goldens hold simulated timings, so they are
// read from the checkout and follow a model change; nothing here pins them.
func (p *pass) checkGolden(id string, csv []byte) {
	want, err := os.ReadFile(filepath.Join(p.spec.Root, "internal", "harness", "testdata", "golden", id+".csv"))
	if err != nil {
		return
	}
	if !bytes.Equal(csv, want) {
		p.fail("%s: CSV differs from internal/harness/testdata/golden/%s.csv", id, id)
	}
}

// runFigures is figures-quick: the paper's figure experiments at quick
// scale, each followed by its JSON and CSV encoding, as paperbench does.
// The experiments are fixed paper artifacts and take no seed.
func runFigures(p *pass) error {
	var t tally
	csvs := map[string][]byte{}
	err := p.timed(func() error {
		return p.op("figures", func() error {
			for _, id := range p.size.experiments {
				e, ok := harness.ByID(id)
				if !ok {
					return fmt.Errorf("unknown experiment %q", id)
				}
				var res *harness.Result
				err := p.span("harness.RunExperiment:"+id, func() (err error) {
					res, err = harness.RunExperiment(e, harness.Options{Scale: harness.Quick})
					return
				})
				if err != nil {
					return err
				}
				err = p.span("Result.JSON", func() error {
					js, err := res.JSON()
					p.rep.Identity["json_sha256:"+id] = sha256Hex(js)
					return err
				})
				if err != nil {
					return err
				}
				_ = p.span("Result.CSV", func() error {
					var buf bytes.Buffer
					res.CSV(&buf)
					csvs[id] = buf.Bytes()
					return nil
				})
				for _, row := range res.Rows {
					t.add(sim.KernelStats{}, row.B, row.C, row.Phases)
				}
			}
			return nil
		})
	})
	if err != nil {
		return err
	}
	for id, csv := range csvs {
		p.rep.Identity["csv_sha256:"+id] = sha256Hex(csv)
		p.checkGolden(id, csv)
	}
	p.rep.Counts = t.counts()
	return nil
}

// runServe is serve-cold and serve-warm: an in-process service behind a
// loopback listener, driven as a closed loop over one client connection.
// serve-cold times the first batch on a fresh service (every job misses the
// cache and is simulated); serve-warm times replays of the same batch once
// it is cached (every job is a hit).
func runServe(p *pass) error {
	svc := serve.NewService(serve.Config{Workers: poolWorkers()})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	srv := &http.Server{Handler: serve.NewServer(svc).Handler()}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	defer func() {
		_ = srv.Shutdown(context.Background())
		<-served
		svc.Close()
	}()
	tr := &http.Transport{MaxConnsPerHost: 1}
	defer tr.CloseIdleConnections()
	cl := &serve.Client{Base: "http://" + ln.Addr().String(), HTTP: &http.Client{Transport: tr}}

	// The seed slides the window of chaos seeds by at most 15, so any two
	// runs share most of their jobs: disjoint windows differ by ~20% in work,
	// which would drown the regression bound in input variation.
	start := defaultSeed + int64(uint64(p.spec.Seed)%16)
	req := serve.BatchRequest{SeedRange: &serve.SeedRange{Start: start, Count: p.size.seeds}}
	for _, id := range p.size.experiments {
		req.Specs = append(req.Specs, serve.Spec{Kind: serve.KindExperiment, Experiment: id})
	}
	ctx := context.Background()
	warm := p.size.ops > 0 // serve-warm times replays; serve-cold has none to time
	var cold bytes.Buffer
	coldPost := func() error { return cl.BatchRaw(ctx, req, &cold) }
	// replay posts the batch again and holds the body to the cold one's
	// bytes. Only the warm workload times it.
	replays := 0
	replay := func() error {
		var body bytes.Buffer
		post := func() error { return cl.BatchRaw(ctx, req, &body) }
		var err error
		if warm {
			err = p.op("POST /v1/batch warm", post)
		} else {
			err = post()
		}
		if err != nil {
			return err
		}
		replays++
		if !bytes.Equal(body.Bytes(), cold.Bytes()) {
			p.rep.Failed++
			p.fail("warm replay %d: %d bytes differ from the cold batch's %d", replays, body.Len(), cold.Len())
		}
		return nil
	}
	var coldDoc *serve.MetricsDoc
	if warm {
		// Filling the cache is this workload's set-up.
		if err := p.span("POST /v1/batch cold", coldPost); err != nil {
			return err
		}
		coldDoc = svc.MetricsSnapshot()
		err = p.timed(func() error {
			for replays < p.size.ops {
				if err := replay(); err != nil {
					return err
				}
			}
			return nil
		})
	} else {
		err = p.timed(func() error { return p.op("POST /v1/batch cold", coldPost) })
		coldDoc = svc.MetricsSnapshot()
		if err == nil {
			// One replay, for the byte-identity check only.
			err = replay()
		}
	}
	if err != nil {
		return err
	}

	// Every line is one job: count and check them, pin what the programs
	// computed (final memory), and sum what the simulations counted.
	var t tally
	memHashes := sha256.New()
	lines := bytes.Split(bytes.TrimSuffix(cold.Bytes(), []byte("\n")), []byte("\n"))
	failedJobs := 0
	for i, line := range lines {
		var r serve.Result
		if err := json.Unmarshal(line, &r); err != nil {
			return fmt.Errorf("job line %d: %w", i, err)
		}
		if r.Failed() {
			failedJobs++
			p.fail("job line %d (%s) failed: %s", i, r.SpecHash, r.Err)
		}
		fmt.Fprintf(memHashes, "%s\n", r.MemHash)
		if r.Chaos != nil && r.Chaos.Diff != nil {
			for _, fp := range r.Chaos.Diff.Runs {
				t.add(fp.Kernel, rt.Breakdown{Elapsed: sim.Time(fp.ElapsedNS)}, fp.Counters, nil)
			}
		}
		if r.Experiment != nil {
			p.checkGolden(r.Spec.Experiment, []byte(r.Experiment.CSV))
		}
	}
	if want := p.size.seeds + len(p.size.experiments); len(lines) != want {
		p.fail("cold batch returned %d job lines, want %d", len(lines), want)
	}
	if !warm {
		p.rep.Attempted, p.rep.Failed = len(lines), p.rep.Failed+failedJobs
	}
	p.result("mem_hashes_sha256", "%x", memHashes.Sum(nil))
	p.rep.Identity["body_sha256"] = sha256Hex(cold.Bytes())
	p.rep.Counts = t.counts()

	doc := svc.MetricsSnapshot()
	hits := doc.Metrics.Counter("serve/cache_hits") - coldDoc.Metrics.Counter("serve/cache_hits")
	misses := doc.Metrics.Counter("serve/cache_misses") - coldDoc.Metrics.Counter("serve/cache_misses")
	p.rep.Layer["serve.cold_job_p50_ms"] = float64(coldDoc.JobLatency.P50NS) / 1e6
	p.rep.Layer["serve.cold_job_p99_ms"] = float64(coldDoc.JobLatency.P99NS) / 1e6
	p.rep.Layer["serve.cache_hit_ratio"] = ratio(hits, hits+misses)
	p.rep.Layer["serve.coalesced"] = float64(doc.Metrics.Counter("serve/coalesced"))
	p.rep.Layer["serve.evictions"] = float64(doc.Metrics.Counter("serve/evictions"))
	p.rep.Layer["serve.response_bytes"] = float64(cold.Len())
	if warm {
		p.opLatency("serve.warm_replay_p50_ms", "serve.warm_replay_p95_ms", "serve.warm_mb_per_s", float64(cold.Len())/(1<<20))
	}
	return nil
}

// sweepNets are the interconnects a predictor sweep crosses with block
// sizes and node counts (harness.PredictSweepBench's grid).
var sweepNets = []string{"cm5", "now", "hwdsm", "cluster:4x8"}

// runPredict is predict-sweep: calibrate once from a recorded quick-scale
// Adaptive/Stache run (the set-up a predictor user pays once), then answer
// the 1008-configuration sweep over and over. One sweep is one operation.
func runPredict(p *pass) error {
	var nets []*network.Params
	for _, name := range sweepNets {
		np, err := network.Preset(name)
		if err != nil {
			return err
		}
		nets = append(nets, np)
	}
	// At full size this is harness.adaptiveCfg at Quick scale, recorded for
	// calibration.
	cfg := adaptive.Config{
		Machine: rt.Config{Nodes: p.size.nodes, BlockSize: 32, Protocol: rt.ProtoStache, Profile: true, Record: true},
		Size:    p.size.n, Iters: p.size.iters, RefineEvery: 4, Seed: p.spec.Seed,
	}
	var r *adaptive.Result
	err := p.span("adaptive.Run recorded", func() (err error) { r, err = adaptive.Run(cfg); return })
	if err != nil {
		return err
	}
	var cal *predict.Calibration
	err = p.span("predict.Calibrate", func() (err error) { cal, err = predict.Calibrate(r.Machine, "adaptive"); return })
	if err != nil {
		return err
	}

	var first uint64
	sweep := func() error {
		h := fnv.New64a()
		for n := 2; n < 2+p.size.nodeCounts; n++ {
			for _, np := range nets {
				for k := 0; k <= predict.MaxShift; k++ {
					pr, err := cal.Predict(predict.Target{BlockSize: 32 << k, Net: np, Nodes: n})
					if err != nil {
						return err
					}
					fmt.Fprintf(h, "%d %d %d\n", pr.ElapsedNS, pr.Counters.ReadFaults, pr.Counters.MsgsSent)
				}
			}
		}
		if len(p.rep.Ops) == 0 {
			first = h.Sum64()
		} else if h.Sum64() != first {
			p.rep.Failed++
			p.fail("sweep %d predicted %016x, the first sweep %016x", len(p.rep.Ops), h.Sum64(), first)
		}
		return nil
	}
	err = p.timed(func() error {
		for len(p.rep.Ops) < p.size.ops {
			if err := p.op("sweep", sweep); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	p.rep.Identity["sweep_fnv"] = fmt.Sprintf("%016x", first)
	p.opLatency("predict.sweep_p50_ms", "predict.sweep_p95_ms", "predict.sweep_configs_per_s",
		float64(p.size.nodeCounts*len(nets)*(predict.MaxShift+1)))
	p.result("checksum", "%.17g", r.Checksum)
	p.machine(r.Machine)
	return nil
}

//go:embed testdata/nsquared.cstar.tmpl
var nsquaredTmpl string

// nsquaredSource generates the cstar program from the seed: the seed sets
// the molecules' initial spacing, which changes every value the program
// computes and none of the work it does.
func nsquaredSource(seed int64, mols, steps int) string {
	spacing := 0.01 * (1 + float64(uint64(seed)%1000)/10000)
	return strings.NewReplacer(
		"@MOLS@", fmt.Sprint(mols),
		"@STEPS@", fmt.Sprint(steps),
		"@SPACING@", fmt.Sprintf("%g", spacing),
	).Replace(nsquaredTmpl)
}

// runCstar is cstar-nsquared: the compiler-directed path, source text to
// finished run.
func runCstar(p *pass) error {
	src := nsquaredSource(p.spec.Seed, p.size.n, p.size.iters)
	mc, err := p.machineConfig(rt.ProtoPredictive)
	if err != nil {
		return err
	}
	var res *interp.Result
	err = p.timed(func() error {
		return p.op("cstar", func() error {
			var prog *lang.Program
			err := p.span("lang.Parse", func() (err error) { prog, err = lang.Parse(src); return })
			if err != nil {
				return err
			}
			var an *compiler.Analysis
			err = p.span("compiler.Analyze", func() (err error) { an, err = compiler.Analyze(prog); return })
			if err != nil {
				return err
			}
			return p.span("interp.Run", func() (err error) {
				res, err = interp.Run(an, interp.Options{Machine: mc})
				return
			})
		})
	})
	if err != nil {
		return err
	}
	for _, name := range []string{"energy", "spread"} {
		v, ok := res.Scalars[name]
		if !ok || math.IsNaN(v) {
			p.fail("scalar %s missing or NaN", name)
		}
		p.result(name, "%.17g", v)
	}
	p.machine(res.Machine)
	return nil
}
