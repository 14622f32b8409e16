// Command protofuzz drives the deterministic protocol chaos subsystem
// (internal/chaos): consecutive seeds derive synthetic workloads that
// run under every {stache, predictive} × {serial, parallel} combination
// with seeded interconnect jitter, cross-checked by a differential
// oracle. Failing seeds shrink to a minimal reproducer printed as a
// one-line command.
//
// Fuzz a seed range (CI smoke):
//
//	protofuzz -seeds 500 -scale quick
//
// Submit the band to a running dsmserve instead of simulating locally
// (the oracle runs server-side; repeated bands are served from the
// content-addressed cache):
//
//	protofuzz -server http://127.0.0.1:8077 -seeds 500
//
// Reproduce a shrunk failure:
//
//	protofuzz -repro -seed 17 -max-nodes 4 -max-phases 3
//
// -seed N runs exactly seed N, 0 included; a negative -seed or -start is
// a usage error.
//
// -aggregate runs every combination with node-leader message
// aggregation enabled (a timing-visible no-op on seeds that derive flat
// interconnects). Shrunk reproducers of aggregated failures carry the
// flag.
//
// That the oracle catches broken protocols is shown by the mutant
// catalogue, which compiles each defect into a copy of the source
// through go -overlay and runs this command against it:
//
//	go run ./cmd/mutate
//
// SIGINT interrupts a campaign gracefully: the seeds already run are
// reported, failing-seed artifacts (-out) are flushed, and the process
// exits 130.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"

	"presto/internal/chaos"
	"presto/internal/serve"
)

func main() {
	var (
		seeds     = flag.Int("seeds", 50, "number of consecutive seeds to run")
		start     = flag.Int64("start", 1, "first seed")
		scale     = flag.String("scale", "quick", "derivation envelope: quick|long")
		seed      = flag.Int64("seed", 0, "run this single seed (overrides -seeds/-start)")
		repro     = flag.Bool("repro", false, "single-seed reproduction mode: print the full differential result (requires -seed)")
		maxNodes  = flag.Int("max-nodes", 0, "cap derived node count (0 = scale default)")
		maxPhases = flag.Int("max-phases", 0, "cap derived phase count")
		maxIters  = flag.Int("max-iters", 0, "cap derived iteration count")
		maxBlocks = flag.Int("max-blocks", 0, "cap derived shared element pool")
		aggFlag   = flag.Bool("aggregate", false, "enable node-leader message aggregation on every combination")
		jitter    = flag.Int("jitter", 0, "interconnect jitter pct: 0 = derive per seed, >0 force, <0 off")
		maxEvents = flag.Int64("max-events", 0, "per-run simulation event budget (0 = default)")
		maxFail   = flag.Int("max-failures", 1, "stop after this many failing seeds")
		noShrink  = flag.Bool("no-shrink", false, "skip minimizing failing seeds")
		out       = flag.String("out", "", "directory to write failing-seed reproducer JSON files")
		server    = flag.String("server", "", "submit the seed band to this dsmserve base URL instead of simulating locally")
		quiet     = flag.Bool("q", false, "suppress per-seed progress")
	)
	flag.Parse()
	seedSet := false
	flag.Visit(func(f *flag.Flag) { seedSet = seedSet || f.Name == "seed" })

	if *seeds < 1 {
		fmt.Fprintf(os.Stderr, "protofuzz: -seeds %d: want at least 1\n", *seeds)
		os.Exit(2)
	}
	if *start < 0 {
		fmt.Fprintf(os.Stderr, "protofuzz: -start %d: want at least 0\n", *start)
		os.Exit(2)
	}
	if *seed < 0 {
		fmt.Fprintf(os.Stderr, "protofuzz: -seed %d: want at least 0\n", *seed)
		os.Exit(2)
	}
	sc, err := chaos.ParseScale(*scale)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	// SIGINT/SIGTERM cancel the campaign between seeds; artifacts for the
	// seeds that did run are flushed before exit.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	o := chaos.Options{
		Seeds:       *seeds,
		Start:       *start,
		Scale:       sc,
		Caps:        chaos.Caps{Nodes: *maxNodes, Phases: *maxPhases, Iters: *maxIters, Blocks: *maxBlocks},
		Aggregate:   *aggFlag,
		JitterPct:   *jitter,
		MaxEvents:   *maxEvents,
		MaxFailures: *maxFail,
		NoShrink:    *noShrink,
		Ctx:         ctx,
	}
	if !*quiet {
		o.Log = os.Stderr
	}
	if seedSet {
		o.Seeds, o.Start = 1, *seed
	}

	if *server != "" {
		if *repro {
			fmt.Fprintln(os.Stderr, "protofuzz: -server does not support -repro (run it locally)")
			os.Exit(2)
		}
		runServer(ctx, *server, o, *out)
		return
	}

	if *repro {
		if !seedSet {
			fmt.Fprintln(os.Stderr, "protofuzz: -repro requires -seed")
			os.Exit(2)
		}
		r := chaos.RunSeed(*seed, o)
		fmt.Print(r.Render())
		if r.Failed() {
			os.Exit(1)
		}
		return
	}

	rep := chaos.Fuzz(o)
	for _, f := range rep.Failures {
		fmt.Printf("protofuzz: seed %d FAILED (%d oracle violations), minimal nodes=%d phases=%d iters=%d blocks=%d\n",
			f.Seed, len(f.Result.Failures), f.Min.Nodes, f.Min.Phases, f.Min.Iters, f.Min.Blocks)
		for _, msg := range f.MinResult.Failures {
			fmt.Printf("  %s\n", msg)
		}
		fmt.Printf("  repro: %s\n", f.Repro)
		if *out != "" {
			if err := writeReproducer(*out, f); err != nil {
				fmt.Fprintf(os.Stderr, "protofuzz: writing reproducer: %v\n", err)
			}
		}
	}
	if rep.Interrupted {
		fmt.Printf("protofuzz: interrupted after %d seeds (%d failed); partial artifacts flushed\n",
			rep.SeedsRun, len(rep.Failures))
		os.Exit(130)
	}
	if rep.Ok() {
		fmt.Printf("protofuzz: %d seeds clean (scale=%s start=%d)\n", rep.SeedsRun, sc, o.Start)
		return
	}
	fmt.Printf("protofuzz: %d/%d seeds failed\n", len(rep.Failures), rep.SeedsRun)
	os.Exit(1)
}

// runServer submits the seed band as one batch to a dsmserve instance
// and consumes the NDJSON verdict stream. The differential oracle runs
// server-side; this client checks verdicts, honors -max-failures, and
// writes reproducer artifacts for failing seeds.
func runServer(ctx context.Context, base string, o chaos.Options, out string) {
	cl := &serve.Client{Base: base}
	req := serve.BatchRequest{SeedRange: &serve.SeedRange{
		Start:     o.Start,
		Count:     o.Seeds,
		Scale:     string(o.Scale),
		JitterPct: o.JitterPct,
		MaxEvents: o.MaxEvents,
		MaxNodes:  o.Caps.Nodes,
		MaxPhases: o.Caps.Phases,
		MaxIters:  o.Caps.Iters,
		MaxBlocks: o.Caps.Blocks,
	}}
	maxFail := o.MaxFailures
	if maxFail <= 0 {
		maxFail = 1
	}
	seedsRun, failed := 0, 0
	errStop := errors.New("max failures reached")
	err := cl.Batch(ctx, req, func(r *serve.Result) error {
		seedsRun++
		if r.Err != "" {
			failed++
			fmt.Printf("protofuzz: spec %s job error: %s\n", r.SpecHash, r.Err)
		} else if d := diffOf(r); d == nil {
			failed++
			fmt.Printf("protofuzz: spec %s: malformed result (no differential payload)\n", r.SpecHash)
		} else if d.Failed() {
			failed++
			fmt.Printf("protofuzz: seed %d FAILED (%d oracle violations)\n", d.Seed, len(d.Failures))
			for _, msg := range d.Failures {
				fmt.Printf("  %s\n", msg)
			}
			repro := chaos.ReproCommand(d.Seed, o, o.Caps)
			fmt.Printf("  repro: %s\n", repro)
			if out != "" {
				f := chaos.Failure{Seed: d.Seed, Result: *d, Min: o.Caps, MinResult: *d, Repro: repro}
				if err := writeReproducer(out, f); err != nil {
					fmt.Fprintf(os.Stderr, "protofuzz: writing reproducer: %v\n", err)
				}
			}
		} else if o.Log != nil {
			fmt.Fprintf(o.Log, "seed %d ok (%s)\n", d.Seed, d.Spec)
		}
		if failed >= maxFail {
			return errStop
		}
		return nil
	})
	if err != nil && !errors.Is(err, errStop) {
		if ctx.Err() != nil {
			fmt.Printf("protofuzz: interrupted after %d seeds (%d failed); partial artifacts flushed\n", seedsRun, failed)
			os.Exit(130)
		}
		fmt.Fprintln(os.Stderr, "protofuzz:", err)
		os.Exit(2)
	}
	if failed == 0 {
		fmt.Printf("protofuzz: %d seeds clean (server=%s scale=%s start=%d)\n", seedsRun, base, o.Scale, o.Start)
		return
	}
	fmt.Printf("protofuzz: %d/%d seeds failed\n", failed, seedsRun)
	os.Exit(1)
}

// diffOf extracts a result's differential payload, nil if absent.
func diffOf(r *serve.Result) *chaos.SeedResult {
	if r.Chaos == nil {
		return nil
	}
	return r.Chaos.Diff
}

// writeReproducer dumps one failure as JSON for CI artifact upload.
func writeReproducer(dir string, f chaos.Failure) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("chaos-seed-%d.json", f.Seed))
	fmt.Printf("  reproducer: %s\n", path)
	return os.WriteFile(path, data, 0o644)
}
