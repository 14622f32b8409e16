package serve

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	"presto/internal/metrics"
)

// Runner executes one normalized spec. The production runner is Run
// (runner.go); tests inject counting or failing stubs.
type Runner func(ctx context.Context, spec Spec) *Result

// Config shapes a Service.
type Config struct {
	// Workers is the pool size (default 1). With one worker the whole
	// service is fully deterministic: jobs run in submission order.
	Workers int
	// CacheBytes budgets the result cache (default 256 MiB; <0 unbounded).
	CacheBytes int64
	// JobTimeout bounds one job's wall clock (default none). A simulation
	// cannot be preempted mid-run, so on timeout the job is abandoned to
	// finish on its own (bounded by the spec's MaxEvents) and the caller
	// receives a structured, uncached timeout error.
	JobTimeout time.Duration
	// Runner overrides the production runner (tests).
	Runner Runner
	// Registry receives the pool's instruments (default: a fresh one).
	Registry *metrics.Registry
}

// Service is the batch scheduler: a content-addressed single-flight
// result cache in front of a deterministic worker pool. Concurrent
// submissions of the same spec coalesce into one simulation; completed
// results are cached by spec hash; every counter lives in the metrics
// registry surfaced at /metricsz.
type Service struct {
	cfg    Config
	pool   *Pool
	runner Runner
	base   context.Context
	stop   context.CancelFunc

	mu       sync.Mutex
	cache    *Cache
	inflight map[string]*flight

	reg       *metrics.Registry
	hits      *metrics.Counter
	misses    *metrics.Counter
	coalesced *metrics.Counter
	jobs      *metrics.Counter
	errors    *metrics.Counter
	panics    *metrics.Counter
	timeouts  *metrics.Counter
	evictions *metrics.Counter
	depth     *metrics.Counter
	latency   *metrics.Histogram

	// Predictor-vs-simulator provenance split: every completed job counts
	// as exactly one of predicted/simulated (by its spec's predict flag),
	// and predicted jobs additionally feed a dedicated latency histogram —
	// the fast path's speedup is directly readable off /metricsz.
	predicted   *metrics.Counter
	simulated   *metrics.Counter
	predLatency *metrics.Histogram

	// Host process gauges, published at snapshot time like depth: a run
	// that pins its machine (a parked goroutine, a retained result) shows
	// here as growth from batch to batch.
	goroutines *metrics.Counter
	heapInuse  *metrics.Counter
}

// flight is one in-progress job shared by every coalesced waiter.
type flight struct {
	done chan struct{}
	line []byte // set before done closes
}

// NewService builds and starts a service.
func NewService(cfg Config) *Service {
	if cfg.CacheBytes == 0 {
		cfg.CacheBytes = 256 << 20
	}
	reg := cfg.Registry
	if reg == nil {
		reg = metrics.New()
	}
	s := &Service{
		cfg:      cfg,
		pool:     NewPool(cfg.Workers),
		runner:   cfg.Runner,
		cache:    NewCache(cfg.CacheBytes),
		inflight: make(map[string]*flight),
		reg:      reg,

		hits:      reg.Counter("serve/cache_hits"),
		misses:    reg.Counter("serve/cache_misses"),
		coalesced: reg.Counter("serve/coalesced"),
		jobs:      reg.Counter("serve/jobs"),
		errors:    reg.Counter("serve/job_errors"),
		panics:    reg.Counter("serve/job_panics"),
		timeouts:  reg.Counter("serve/job_timeouts"),
		evictions: reg.Counter("serve/evictions"),
		depth:     reg.Counter("serve/queue_depth"),
		latency:   reg.Histogram("serve/job_latency_ns"),

		predicted:   reg.Counter("serve/jobs_predicted"),
		simulated:   reg.Counter("serve/jobs_simulated"),
		predLatency: reg.Histogram("serve/predict_latency_ns"),

		goroutines: reg.Counter("go_goroutines"),
		heapInuse:  reg.Counter("go_heap_inuse_bytes"),
	}
	if s.runner == nil {
		s.runner = Run
	}
	s.base, s.stop = context.WithCancel(context.Background())
	return s
}

// Ticket is a handle on one submission's (possibly shared) result.
type Ticket struct {
	line []byte // resolved immediately on a cache hit
	f    *flight
}

// Wait blocks until the result line is available or ctx is canceled.
// The returned bytes are exactly one NDJSON line.
func (t *Ticket) Wait(ctx context.Context) ([]byte, error) {
	if t.f == nil {
		return t.line, nil
	}
	select {
	case <-t.f.done:
		return t.f.line, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// Do submits one normalized spec: cache hit resolves immediately, an
// in-flight duplicate coalesces onto the running job, and a fresh spec
// enqueues on the pool. Do never blocks on simulation work.
func (s *Service) Do(spec Spec) *Ticket {
	hash := spec.Hash()
	s.mu.Lock()
	if line, ok := s.cache.Get(hash); ok {
		s.hits.Inc()
		s.mu.Unlock()
		return &Ticket{line: line}
	}
	if fl := s.inflight[hash]; fl != nil {
		s.coalesced.Inc()
		s.mu.Unlock()
		return &Ticket{f: fl}
	}
	fl := &flight{done: make(chan struct{})}
	s.inflight[hash] = fl
	s.misses.Inc()
	s.mu.Unlock()

	if !s.pool.Submit(func() { s.runJob(spec, hash, fl) }) {
		// Pool closed mid-drain: resolve the flight with a structured
		// error instead of leaving waiters hanging.
		fl.line = errResult(spec, hash, "serve: server is draining").encode()
		s.mu.Lock()
		delete(s.inflight, hash)
		s.mu.Unlock()
		close(fl.done)
	}
	return &Ticket{f: fl}
}

// runJob executes on a pool worker: run (with recovery and timeout),
// encode once, cache if cacheable, publish to every waiter.
func (s *Service) runJob(spec Spec, hash string, fl *flight) {
	start := time.Now()
	res, timedOut := s.execute(spec, hash)
	res.SpecHash, res.Spec = hash, spec
	line := res.encode()

	s.mu.Lock()
	// Timeout results are wall-clock accidents, not properties of the
	// spec — never cache them, so a retry simulates again.
	if !timedOut {
		s.evictions.Add(int64(len(s.cache.Put(hash, line))))
	}
	if res.Err != "" {
		s.errors.Inc()
	}
	s.jobs.Inc()
	elapsed := time.Since(start).Nanoseconds()
	s.latency.Observe(elapsed)
	if spec.Predict {
		s.predicted.Inc()
		s.predLatency.Observe(elapsed)
	} else {
		s.simulated.Inc()
	}
	delete(s.inflight, hash)
	s.mu.Unlock()

	fl.line = line
	close(fl.done)
}

// execute runs the spec under the job timeout with panic recovery. A
// panicking or overrunning job becomes a structured error result instead
// of killing the server; an overrunning job's goroutine is abandoned
// (the simulation's MaxEvents budget bounds it).
func (s *Service) execute(spec Spec, hash string) (res *Result, timedOut bool) {
	ctx, cancel := s.base, func() {}
	if s.cfg.JobTimeout > 0 {
		ctx, cancel = context.WithTimeout(s.base, s.cfg.JobTimeout)
	}
	defer cancel()

	ch := make(chan *Result, 1)
	go func() {
		defer func() {
			if r := recover(); r != nil {
				s.mu.Lock()
				s.panics.Inc()
				s.mu.Unlock()
				ch <- errResult(spec, hash, fmt.Sprintf("serve: job panicked: %v", r))
			}
		}()
		ch <- s.runner(ctx, spec)
	}()
	select {
	case r := <-ch:
		return r, false
	case <-ctx.Done():
		s.mu.Lock()
		s.timeouts.Inc()
		s.mu.Unlock()
		return errResult(spec, hash, fmt.Sprintf("serve: job abandoned: %v", ctx.Err())), true
	}
}

// Cached returns the stored result line for a spec hash, or reports an
// in-flight job (the GET /v1/spec path).
func (s *Service) Cached(hash string) (line []byte, ok, running bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if line, ok := s.cache.Get(hash); ok {
		return line, true, false
	}
	_, running = s.inflight[hash]
	return nil, false, running
}

// LatencyQuantiles are the pool's job wall-clock estimates.
type LatencyQuantiles struct {
	P50NS int64 `json:"p50_ns"`
	P99NS int64 `json:"p99_ns"`
}

// MetricsDoc is the /metricsz body.
type MetricsDoc struct {
	Metrics    *metrics.Snapshot `json:"metrics"`
	JobLatency LatencyQuantiles  `json:"job_latency"`
	// PredictLatency summarizes the predictor-backed jobs' wall clock
	// (serve/predict_latency_ns); against JobLatency it shows the fast
	// path's speedup over full simulation.
	PredictLatency LatencyQuantiles `json:"predict_latency"`
	CacheEntries   int              `json:"cache_entries"`
	CacheBytes     int64            `json:"cache_bytes"`
}

// MetricsSnapshot renders the pool's instruments. The queue-depth and
// host-process gauges are published at snapshot time
// (metrics.Counter.Set), like the kernel statistics elsewhere in the tree.
func (s *Service) MetricsSnapshot() *MetricsDoc {
	queued := s.pool.Depth()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.depth.Set(int64(queued))
	s.goroutines.Set(int64(runtime.NumGoroutine()))
	s.heapInuse.Set(int64(ms.HeapInuse))
	return &MetricsDoc{
		Metrics: s.reg.Snapshot(),
		JobLatency: LatencyQuantiles{
			P50NS: s.latency.Quantile(0.50),
			P99NS: s.latency.Quantile(0.99),
		},
		PredictLatency: LatencyQuantiles{
			P50NS: s.predLatency.Quantile(0.50),
			P99NS: s.predLatency.Quantile(0.99),
		},
		CacheEntries: s.cache.Len(),
		CacheBytes:   s.cache.Bytes(),
	}
}

// Close drains the pool (queued jobs run to completion) and then cancels
// the base job context. Safe to call once, after the HTTP front end has
// stopped accepting work.
func (s *Service) Close() {
	s.pool.Close()
	s.stop()
}
