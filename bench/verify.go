package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"sort"
)

//go:embed expected.json
var embeddedExpected []byte

// expected pins program results for the default seed: what the simulated
// programs computed (checksums, tree cells, final-memory hashes, cstar
// scalars), never how long the simulated machine took. A change to the
// timing model therefore needs no re-pin; a change to what a program
// computes does. Regenerate an entry with -pin.
type expected struct {
	Full  map[string]map[string]string `json:"full"`
	Smoke map[string]map[string]string `json:"smoke"`
}

func loadExpected(path string) (*expected, error) {
	data := embeddedExpected
	if path != "" {
		b, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		data = b
	}
	var e expected
	if err := json.Unmarshal(data, &e); err != nil {
		return nil, fmt.Errorf("expected results: %w", err)
	}
	return &e, nil
}

// pins returns the pinned results that apply to this run: none for a seed
// other than the default, whose passes are held to the machine invariants
// and to each other instead.
func (e *expected) pins(workload string, o options) map[string]string {
	if o.seed != defaultSeed {
		return nil
	}
	if o.smoke {
		return e.Smoke[workload]
	}
	return e.Full[workload]
}

// checkPasses counts attempted and failed operations over all passes. A
// pass fails on what it reported itself (run errors, invariant violations,
// failed jobs), on a program result that differs from its pin, and on any
// result, model-output digest or exact count that differs from the first
// pass's — serial, parallel, traced and profiled passes must all agree.
func checkPasses(res *runResult, passes []*passReport, pins map[string]string) {
	first := passes[0]
	for _, p := range passes {
		var bad []string
		for _, k := range sortedKeys(pins) {
			if got := p.Results[k]; got != pins[k] {
				bad = append(bad, fmt.Sprintf("result %s = %s, pinned %s", k, got, pins[k]))
			}
		}
		bad = append(bad, diffMaps("result", p.Results, first.Results)...)
		bad = append(bad, diffMaps("digest", p.Identity, first.Identity)...)
		bad = append(bad, diffMaps("count", p.Counts, first.Counts)...)
		failed := p.Failed
		if len(bad) > 0 && failed == 0 {
			failed = p.Attempted
		}
		res.attempted += p.Attempted
		res.failed += failed
		for _, f := range append(p.Failures, bad...) {
			res.failures = append(res.failures, fmt.Sprintf("pass %d (%s): %s", p.Index, p.Variant, f))
		}
	}
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// diffMaps lists the keys of want on which got differs.
func diffMaps[V comparable](kind string, got, want map[string]V) []string {
	var out []string
	for _, k := range sortedKeys(want) {
		if g, ok := got[k]; !ok || g != want[k] {
			out = append(out, fmt.Sprintf("%s %s = %v, want %v", kind, k, got[k], want[k]))
		}
	}
	return out
}
