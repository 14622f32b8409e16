package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// passSpec is what the parent hands a child: which pass to run and how.
type passSpec struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Smoke    bool   `json:"smoke"`
	Variant  string `json:"variant"`
	Index    int    `json:"index"`
	// SpawnedNS is the parent's clock just before it started the child:
	// set-up time is counted from here, so it includes process start.
	SpawnedNS int64 `json:"spawned_ns"`
	// CPUProfile, when set, is where the child writes the CPU profile of
	// its timed section.
	CPUProfile string `json:"cpu_profile,omitempty"`
	// Root is the checkout root (golden files live under it).
	Root string `json:"root"`
}

// passReport is what one child hands back.
type passReport struct {
	Variant string `json:"variant"`
	Index   int    `json:"index"`
	// SetupS runs from the parent's spawn to the first timed operation.
	SetupS float64 `json:"setup_s"`
	// Ops are the wall-clock seconds of each timed operation.
	Ops []float64 `json:"ops"`
	// CPUS is the process CPU time (user+system, all threads) of the timed
	// section.
	CPUS      float64 `json:"cpu_s"`
	PeakRSSMB float64 `json:"peak_rss_mb"`
	// Results are program results (checksums, memory hashes): compared
	// with the pins and between passes. Counts are the program's exact
	// counts, compared between passes.
	Results map[string]string  `json:"results"`
	Counts  map[string]float64 `json:"counts"`
	// Identity holds digests of model outputs (simulated timings): they
	// must agree between passes but are never pinned, so a model change
	// needs no re-pin.
	Identity map[string]string `json:"identity"`
	// Layer holds per-layer measurements only the child can take.
	Layer map[string]float64 `json:"layer"`
	// Attempted and Failed count operations (job lines for serve-cold).
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Failures  []string `json:"failures,omitempty"`
	Spans     []span   `json:"spans,omitempty"`
	// Process statistics of the timed section; the heap in use is the level
	// at its end.
	AllocMB     float64 `json:"alloc_mb"`
	GCCycles    float64 `json:"gc_cycles"`
	GCPauseMS   float64 `json:"gc_pause_ms"`
	HeapInuseMB float64 `json:"heap_inuse_mb"`
}

// profilePath is where a traced pass leaves its CPU profile.
func profilePath(outDir, workload string, index int) string {
	return filepath.Join(outDir, fmt.Sprintf("%s.%d.cpu.pprof", workload, index))
}

// spawnPass runs one pass of w in a child process and returns its report.
func spawnPass(w *workload, o options, v variant, index int, outDir string) (*passReport, error) {
	spec := passSpec{Workload: w.name, Seed: o.seed, Smoke: o.smoke, Variant: v.name,
		Index: index, Root: o.root}
	if v.traced {
		spec.CPUProfile = profilePath(outDir, w.name, index)
	}
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	spec.SpawnedNS = time.Now().UnixNano()
	arg, _ := json.Marshal(spec)
	cmd := exec.Command(exe, "-child", string(arg))
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("pass %d (%s): %w", index, v.name, err)
	}
	var p passReport
	if err := json.Unmarshal(out.Bytes(), &p); err != nil {
		return nil, fmt.Errorf("pass %d (%s): decoding report: %w", index, v.name, err)
	}
	return &p, nil
}

// pass is the child's side of one pass: the workload calls into it to mark
// the timed section, time operations, record spans and report results.
type pass struct {
	spec    passSpec
	variant variant
	size    size
	rep     passReport
	spans   *spanRecorder
}

// childMain runs one pass and writes its report to w.
func childMain(arg string, w io.Writer) int {
	var spec passSpec
	if err := json.Unmarshal([]byte(arg), &spec); err != nil {
		fmt.Fprintf(os.Stderr, "prestobench child: %v\n", err)
		return 2
	}
	wl := workloadByName(spec.Workload)
	if wl == nil {
		fmt.Fprintf(os.Stderr, "prestobench child: unknown workload %q\n", spec.Workload)
		return 2
	}
	p := &pass{spec: spec, size: wl.full}
	if spec.Smoke {
		p.size = wl.smoke
	}
	for _, v := range []variant{plainPass, tracedPass, parallelPass, flightPass} {
		if v.name == spec.Variant {
			p.variant = v
		}
	}
	p.rep = passReport{Variant: spec.Variant, Index: spec.Index, Results: map[string]string{},
		Counts: map[string]float64{}, Identity: map[string]string{}, Layer: map[string]float64{}}
	if p.variant.traced {
		p.spans = &spanRecorder{pass: spec.Index}
	}
	if err := wl.run(p); err != nil {
		p.fail("%v", err)
	}
	if p.rep.Attempted == 0 {
		// A pass that died before its first operation still attempted one.
		p.rep.Attempted = max(len(p.rep.Ops), 1)
	}
	if len(p.rep.Failures) > 0 && p.rep.Failed == 0 {
		p.rep.Failed = p.rep.Attempted
	}
	p.rep.Spans = p.spans.done()
	p.rep.PeakRSSMB = peakRSSMB()
	if err := json.NewEncoder(w).Encode(&p.rep); err != nil {
		fmt.Fprintf(os.Stderr, "prestobench child: %v\n", err)
		return 1
	}
	return 0
}

// timed runs the pass's timed section. Set-up ends where it begins; the CPU
// profile, the CPU-time reading and the process statistics cover exactly
// this section, so verification after it is in none of them.
func (p *pass) timed(section func() error) error {
	// Collect set-up's garbage as part of set-up: every pass then enters the
	// timed section at the same point of the GC cycle, so the cycles that
	// fall inside it, and with them CPU time and the heap's high-water mark,
	// repeat.
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	var prof *os.File
	if p.spec.CPUProfile != "" {
		f, err := os.Create(p.spec.CPUProfile)
		if err != nil {
			return err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return err
		}
		prof = f
	}
	cpu0 := processCPU()
	p.rep.SetupS = float64(time.Now().UnixNano()-p.spec.SpawnedNS) / 1e9
	err := section()
	p.rep.CPUS = (processCPU() - cpu0).Seconds()
	if prof != nil {
		pprof.StopCPUProfile()
		if cerr := prof.Close(); err == nil {
			err = cerr
		}
	}
	runtime.ReadMemStats(&after)
	p.rep.AllocMB = float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20)
	p.rep.GCCycles = float64(after.NumGC - before.NumGC)
	p.rep.GCPauseMS = float64(after.PauseTotalNs-before.PauseTotalNs) / 1e6
	p.rep.HeapInuseMB = float64(after.HeapInuse) / (1 << 20)
	return err
}

// op times one operation of the workload inside the timed section.
func (p *pass) op(name string, fn func() error) error {
	t := time.Now()
	err := p.span(name, fn)
	p.rep.Ops = append(p.rep.Ops, time.Since(t).Seconds())
	return err
}

// span records fn as a span when the pass is traced.
func (p *pass) span(name string, fn func() error) error {
	end := p.spans.begin(name)
	err := fn()
	end()
	return err
}

func (p *pass) fail(format string, args ...any) {
	p.rep.Failures = append(p.rep.Failures, fmt.Sprintf(format, args...))
}

func (p *pass) result(key string, format string, args ...any) {
	p.rep.Results[key] = fmt.Sprintf(format, args...)
}

// opLatency reports the quantiles of the pass's timed operations and their
// rate, for the workloads that repeat a short operation: perOp is the work
// one operation does, in the rate metric's unit.
func (p *pass) opLatency(p50, p95, rate string, perOp float64) {
	p.rep.Layer[p50] = quantile(p.rep.Ops, 0.5) * 1e3
	p.rep.Layer[p95] = quantile(p.rep.Ops, 0.95) * 1e3
	p.rep.Layer[rate] = perOp / median(p.rep.Ops)
}

// processCPU is the user+system CPU time of the whole process so far.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB reads the process's resident-set high-water mark (VmHWM). It
// belongs to this process image alone: ru_maxrss of an exec'd child can
// carry over the parent's.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024
		}
	}
	return 0
}
