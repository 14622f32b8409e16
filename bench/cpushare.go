package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"os/exec"
	"strconv"
	"strings"
)

// cpuBuckets are the layers host CPU samples are attributed to. Each is
// reported as <bucket>.cpu_share; the shares of one run sum to 1.
var cpuBuckets = []string{
	"apps", "interp", "compiler", "memory.access", "memory.block", "tempest.access", "tempest.proto",
	"stache", "core", "update", "blockstate", "sim", "network", "rt", "harness", "chaos", "predict",
	"serve", "go.gc", "go.sched", "bench",
}

// packageBucket maps a presto/internal package to its bucket; memory and
// tempest are split further by function.
var packageBucket = map[string]string{
	"interp": "interp",
	"lang":   "compiler", "cfg": "compiler", "dataflow": "compiler", "compiler": "compiler",
	"stache": "stache", "core": "core", "update": "update",
	"blockstate": "blockstate", "schedule": "blockstate",
	"sim": "sim", "network": "network", "rt": "rt",
	"harness": "harness", "metrics": "harness", "trace": "harness", "causal": "harness",
	"chaos": "chaos", "check": "chaos",
	"predict": "predict", "serve": "serve",
	// Reached only from the benchmark's own layer drivers.
	"kernelbench": "bench", "prof": "bench", "teapot": "bench",
}

const internalPrefix = "presto/internal/"

// gcFrames mark a sample as garbage-collection work wherever it ran: on a
// background worker or as an allocating goroutine's assist.
var gcFrames = []string{
	"runtime.gcBgMarkWorker", "runtime.gcAssistAlloc", "runtime.gcDrain", "runtime.bgsweep",
	"runtime.bgscavenge", "runtime.gcMarkTermination", "runtime.gcStart", "runtime.sweepone",
}

// splitFunc splits a presto/internal function name into its package path
// and the rest ("memory", "(*Store).LoadF64").
func splitFunc(name string) (pkg, fn string, ok bool) {
	rest, ok := strings.CutPrefix(name, internalPrefix)
	if !ok {
		return "", "", false
	}
	pkg, fn, _ = strings.Cut(rest, ".")
	return pkg, fn, true
}

// hasAnyPrefix reports whether s starts with one of the prefixes.
func hasAnyPrefix(s string, prefixes ...string) bool {
	for _, p := range prefixes {
		if strings.HasPrefix(s, p) {
			return true
		}
	}
	return false
}

// classify attributes one sampled stack (leaf first) to a bucket: the
// leaf-most presto/internal frame decides; stacks with none are the
// benchmark's own code, the garbage collector, or the rest of the Go
// runtime (scheduler, netpoller, timers), which the kernel's goroutine
// hand-off causes.
func classify(stack []string) string {
	for _, f := range stack {
		if hasAnyPrefix(f, gcFrames...) {
			return "go.gc"
		}
	}
	for i, f := range stack {
		pkg, fn, ok := splitFunc(f)
		if !ok {
			continue
		}
		switch {
		case strings.HasPrefix(pkg, "apps/"):
			return "apps"
		case pkg == "tempest":
			// The shared-access path: Node.Read*/Write*/RMW* and the
			// use notes they make. Faults and handlers are protocol.
			if m, ok := strings.CutPrefix(fn, "(*Node)."); ok &&
				hasAnyPrefix(m, "Read", "Write", "RMW", "notePresendUse", "finishUse") {
				return "tempest.access"
			}
			return "tempest.proto"
		case pkg == "rt" && hasAnyPrefix(fn, "(*Worker).Read", "(*Worker).Write", "(*Worker).AtomicAdd"):
			// One-line wrappers of the Node accessors.
			return "tempest.access"
		case pkg == "memory":
			// The leaf-most exported Store method decides: loads and
			// stores are the access path, the rest is block bookkeeping.
			for _, g := range stack[i:] {
				gp, gf, ok := splitFunc(g)
				if !ok || gp != "memory" {
					break
				}
				if m, ok := strings.CutPrefix(gf, "(*Store)."); ok && m != "" && m[0] >= 'A' && m[0] <= 'Z' {
					if hasAnyPrefix(m, "Load", "Store") {
						return "memory.access"
					}
					return "memory.block"
				}
			}
			return "memory.block"
		}
		if b, ok := packageBucket[pkg]; ok {
			return b
		}
		return "bench"
	}
	for _, f := range stack {
		if strings.HasPrefix(f, "main.") {
			return "bench"
		}
	}
	return "go.sched"
}

// cpuShares partitions the samples of `go tool pprof -traces
// -sample_index=samples` output into cpuBuckets and returns each bucket's
// share of all samples, plus the sample count.
func cpuShares(traces io.Reader) (map[string]float64, int64, error) {
	counts := map[string]int64{}
	var total, weight int64
	var stack []string
	flush := func() {
		if len(stack) > 0 {
			counts[classify(stack)] += weight
			total += weight
		}
		stack = stack[:0]
	}
	started := false
	sc := bufio.NewScanner(traces)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<24)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "-----------+") {
			flush()
			started = true
			continue
		}
		fields := strings.Fields(strings.TrimSuffix(line, " (inline)"))
		if !started || len(fields) == 0 || strings.HasSuffix(fields[0], ":") {
			continue // header, or a sample label
		}
		if len(stack) == 0 {
			n, err := strconv.ParseInt(fields[0], 10, 64)
			if err != nil || len(fields) < 2 {
				return nil, 0, fmt.Errorf("pprof traces: bad sample line %q", line)
			}
			weight = n
			fields = fields[1:]
		}
		stack = append(stack, strings.Join(fields, " "))
	}
	if err := sc.Err(); err != nil {
		return nil, 0, err
	}
	flush()
	shares := map[string]float64{}
	for _, b := range cpuBuckets {
		shares[b] = ratio(counts[b], total)
	}
	return shares, total, nil
}

// profileShares runs `go tool pprof -traces` over the passes' CPU profiles
// (merged) and partitions the samples.
func profileShares(profiles []string) (map[string]float64, int64, error) {
	args := append([]string{"tool", "pprof", "-traces", "-sample_index=samples"}, profiles...)
	out, err := exec.Command("go", args...).Output()
	if err != nil {
		var stderr []byte
		if ee, ok := err.(*exec.ExitError); ok {
			stderr = ee.Stderr
		}
		return nil, 0, fmt.Errorf("go tool pprof: %w: %s", err, stderr)
	}
	return cpuShares(bytes.NewReader(out))
}
