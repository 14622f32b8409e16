package serve

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"

	"presto/internal/harness"
)

// newTestServer wires a Service behind httptest and returns a client.
func newTestServer(t *testing.T, cfg Config) (*Service, *Client) {
	t.Helper()
	svc := NewService(cfg)
	srv := httptest.NewServer(NewServer(svc).Handler())
	t.Cleanup(func() {
		srv.Close()
		svc.Close()
	})
	return svc, &Client{Base: srv.URL}
}

// TestBatchSecondRunFullyDeduped is the dedupe proof: submitting the
// identical batch twice must simulate each spec exactly once and return
// byte-identical response bodies, the second served entirely from cache.
func TestBatchSecondRunFullyDeduped(t *testing.T) {
	var runs atomic.Int64
	svc, cl := newTestServer(t, Config{
		Workers: 4,
		Runner: func(ctx context.Context, spec Spec) *Result {
			runs.Add(1)
			return &Result{ElapsedNS: spec.Seed}
		},
	})

	const n = 20
	req := BatchRequest{SeedRange: &SeedRange{Start: 1, Count: n}}
	var first, second bytes.Buffer
	if err := cl.BatchRaw(context.Background(), req, &first); err != nil {
		t.Fatal(err)
	}
	if err := cl.BatchRaw(context.Background(), req, &second); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first.Bytes(), second.Bytes()) {
		t.Fatalf("replayed batch body differs:\n--- first\n%s--- second\n%s", &first, &second)
	}
	if lines := bytes.Count(first.Bytes(), []byte{'\n'}); lines != n {
		t.Fatalf("response has %d lines, want %d", lines, n)
	}
	if got := runs.Load(); got != n {
		t.Fatalf("runner executed %d times for two identical batches, want %d", got, n)
	}
	if c := counter(svc, "serve/cache_hits"); c != n {
		t.Fatalf("second batch produced %d cache hits, want %d (100%%)", c, n)
	}
	if c := counter(svc, "serve/cache_misses"); c != n {
		t.Fatalf("misses = %d, want %d", c, n)
	}
}

// TestBatchFigureCSVMatchesInProcess is the end-to-end determinism
// contract: a figure sweep pushed through HTTP returns the exact CSV an
// in-process harness run renders.
func TestBatchFigureCSVMatchesInProcess(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a full figure5 sweep")
	}
	_, cl := newTestServer(t, Config{Workers: 2})

	fig5, ok := harness.ByID("figure5")
	if !ok {
		t.Fatal("figure5 not registered")
	}
	wantCSV, _, err := harness.RunCSV(fig5, harness.Options{Scale: harness.Quick})
	if err != nil {
		t.Fatal(err)
	}

	req := BatchRequest{Specs: []Spec{{Kind: KindExperiment, Experiment: "figure5"}}}
	var got *Result
	err = cl.Batch(context.Background(), req, func(r *Result) error { got = r; return nil })
	if err != nil {
		t.Fatal(err)
	}
	if got == nil || got.Err != "" {
		t.Fatalf("batch result: %+v", got)
	}
	if got.Experiment == nil {
		t.Fatal("experiment payload missing")
	}
	if got.Experiment.CSV != string(wantCSV) {
		t.Fatalf("served CSV differs from in-process run:\n--- served\n%s--- in-process\n%s",
			got.Experiment.CSV, wantCSV)
	}
	if got.Experiment.CSVSHA256 != sha256Hex(wantCSV) {
		t.Fatalf("csv_sha256 %s does not match content", got.Experiment.CSVSHA256)
	}
}

// TestBatchChaosMatchesInProcess runs one single-combo chaos spec through
// HTTP and checks the fingerprint against a direct Run call.
func TestBatchChaosMatchesInProcess(t *testing.T) {
	_, cl := newTestServer(t, Config{Workers: 1})

	spec, err := Spec{
		Kind: KindChaos, Seed: 5, Protocol: "stache",
		MaxNodes: 2, MaxPhases: 1, MaxIters: 2, MaxBlocks: 4,
	}.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	want := Run(context.Background(), spec)
	if want.Err != "" || want.MemHash == "" {
		t.Fatalf("in-process run: %+v", want)
	}

	var got *Result
	err = cl.Batch(context.Background(), BatchRequest{Specs: []Spec{spec}},
		func(r *Result) error { got = r; return nil })
	if err != nil {
		t.Fatal(err)
	}
	if got == nil || got.Err != "" {
		t.Fatalf("batch result: %+v", got)
	}
	if got.MemHash != want.MemHash || got.ElapsedNS != want.ElapsedNS {
		t.Fatalf("served fingerprint (%s, %d) != in-process (%s, %d)",
			got.MemHash, got.ElapsedNS, want.MemHash, want.ElapsedNS)
	}
	if got.SpecHash != spec.Hash() {
		t.Fatalf("spec_hash %s, want %s", got.SpecHash, spec.Hash())
	}
}

func TestSpecEndpoint(t *testing.T) {
	_, cl := newTestServer(t, Config{
		Workers: 1,
		Runner: func(ctx context.Context, spec Spec) *Result {
			return &Result{ElapsedNS: spec.Seed}
		},
	})

	if _, err := cl.Spec(context.Background(), strings.Repeat("0", 64)); !errors.Is(err, ErrUnknownSpec) {
		t.Fatalf("unknown hash: %v", err)
	}

	spec := mustSpec(t, 11)
	var streamed *Result
	err := cl.Batch(context.Background(), BatchRequest{Specs: []Spec{spec}},
		func(r *Result) error { streamed = r; return nil })
	if err != nil {
		t.Fatal(err)
	}
	got, err := cl.Spec(context.Background(), spec.Hash())
	if err != nil {
		t.Fatal(err)
	}
	if got.SpecHash != streamed.SpecHash || got.ElapsedNS != streamed.ElapsedNS {
		t.Fatalf("GET /v1/spec %+v != streamed %+v", got, streamed)
	}
}

func TestBatchRejectsInvalidSpecs(t *testing.T) {
	_, cl := newTestServer(t, Config{Workers: 1})
	err := cl.Batch(context.Background(),
		BatchRequest{Specs: []Spec{{Kind: KindChaos}, {Kind: "nope"}}},
		func(*Result) error { return nil })
	if err == nil || !strings.Contains(err.Error(), "unknown spec kind") {
		t.Fatalf("invalid batch: %v", err)
	}
	err = cl.Batch(context.Background(), BatchRequest{}, func(*Result) error { return nil })
	if err == nil || !strings.Contains(err.Error(), "empty batch") {
		t.Fatalf("empty batch: %v", err)
	}
}

// TestBatchRejectsRetiredFields: the engine-ablation knobs left the
// spec, and the strict decoder must refuse a client that still sends one
// — by name — rather than silently running the default.
func TestBatchRejectsRetiredFields(t *testing.T) {
	_, cl := newTestServer(t, Config{Workers: 1})
	for field, value := range map[string]string{
		"sched": `"heap"`, "storage": `"mapref"`, "lookahead": `"global"`, "no_steal": "true",
	} {
		body := `{"specs":[{"kind":"chaos","seed":1,"protocol":"stache","` + field + `":` + value + `}]}`
		resp, err := http.Post(cl.Base+"/v1/batch", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		msg, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(msg), `"`+field+`"`) {
			t.Errorf("%s: status %d, body %q; want 400 naming the field", field, resp.StatusCode, msg)
		}
	}
}

func TestMetricsEndpoint(t *testing.T) {
	_, cl := newTestServer(t, Config{
		Workers: 1,
		Runner:  func(ctx context.Context, spec Spec) *Result { return &Result{} },
	})
	req := BatchRequest{SeedRange: &SeedRange{Start: 1, Count: 5}}
	if err := cl.BatchRaw(context.Background(), req, &bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
	doc, err := cl.Metrics(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	vals := map[string]int64{}
	for _, c := range doc.Metrics.Counters {
		vals[c.Name] = c.Value
	}
	if vals["serve/jobs"] != 5 || vals["serve/cache_misses"] != 5 {
		t.Fatalf("counters after one 5-spec batch: %v", vals)
	}
	if doc.CacheEntries != 5 {
		t.Fatalf("cache_entries = %d", doc.CacheEntries)
	}
}

// TestBatchSoakHoldsNoMachines replays one uncached 40-job batch of real
// differential chaos jobs — four small machines each — and reads the
// host-process gauges off /metricsz after every round: a finished
// simulation must leave neither goroutines nor heap behind.
func TestBatchSoakHoldsNoMachines(t *testing.T) {
	svc, cl := newTestServer(t, Config{Workers: 2, CacheBytes: 1}) // every line exceeds the budget
	req := BatchRequest{SeedRange: &SeedRange{Start: 1, Count: 40}}
	round := func() (goroutines, heapInuse int64) {
		t.Helper()
		err := cl.Batch(context.Background(), req, func(r *Result) error {
			if r.Err != "" {
				t.Errorf("spec %s: %s", r.SpecHash, r.Err)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		runtime.GC()
		doc, err := cl.Metrics(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return doc.Metrics.Counter("go_goroutines"), doc.Metrics.Counter("go_heap_inuse_bytes")
	}
	g0, h0 := round() // the first round pays for pools, connections and lazy set-up
	if g0 <= 0 || h0 <= 0 {
		t.Fatalf("host gauges not published: go_goroutines %d, go_heap_inuse_bytes %d", g0, h0)
	}
	const rounds = 5
	for i := 1; i < rounds; i++ {
		g, h := round()
		// One pinned 40-job round is hundreds of goroutines and ~190 MB.
		if g > g0+4 || h > h0+(16<<20) {
			t.Fatalf("round %d: %d goroutines, %d MB heap in use; after round 0: %d, %d MB",
				i, g, h>>20, g0, h0>>20)
		}
	}
	if got, want := counter(svc, "serve/cache_misses"), int64(rounds*40); got != want {
		t.Fatalf("%d simulations, want %d: the soak must not hit the cache", got, want)
	}
}
