package chaos

import (
	"fmt"
	"sort"

	"presto/internal/rt"
)

// The differential matrix: every seed runs under each protocol × engine
// combination. The write-update baseline is excluded — it intentionally
// violates value coherence between pushes, so the oracle's invariants do
// not apply to it.
var (
	protocols = []rt.ProtocolKind{rt.ProtoStache, rt.ProtoPredictive}
	engines   = []rt.EngineKind{rt.EngineSerial, rt.EngineParallel}
)

// comboKey names one cell of the matrix, e.g. "stache/parallel".
func comboKey(p rt.ProtocolKind, e rt.EngineKind) string {
	return string(p) + "/" + string(e)
}

// SeedResult is the differential oracle's verdict on one seed.
type SeedResult struct {
	Seed int64 `json:"seed"`
	Spec Spec  `json:"spec"`
	// Runs maps "protocol/engine" to that combination's fingerprint.
	Runs map[string]Fingerprint `json:"runs"`
	// Failures lists every oracle violation, empty for a clean seed.
	Failures []string `json:"failures,omitempty"`
}

// Failed reports whether any oracle check tripped.
func (r SeedResult) Failed() bool { return len(r.Failures) > 0 }

// RunSeed derives the seed's workload and runs the full differential
// matrix, checking:
//
//  1. every run completes without error (no deadlock, no event-budget
//     overrun) and with protocol invariants and pre-send accounting
//     intact at quiescence (check.Machine, check.Accounting);
//  2. for each protocol, the serial and parallel engines produce
//     byte-identical fingerprints (time, event counts, counters, final
//     memory);
//  3. across protocols, final memory is identical — the workload's
//     writes never depend on racy read values, so coherent protocols
//     must agree on every block's final contents.
func RunSeed(seed int64, o Options) SeedResult {
	o = o.withDefaults()
	res := SeedResult{
		Seed: seed,
		Spec: o.Derive(seed),
		Runs: make(map[string]Fingerprint),
	}
	fail := func(format string, args ...any) {
		res.Failures = append(res.Failures, fmt.Sprintf(format, args...))
	}
	for _, p := range protocols {
		var fps [2]Fingerprint
		for i, e := range engines {
			fp := Execute(res.Spec, rt.Config{
				Protocol: p, Engine: e, MaxEvents: o.MaxEvents, Aggregate: o.Aggregate,
			})
			res.Runs[comboKey(p, e)] = fp
			fps[i] = fp
			if fp.Err != "" {
				fail("%s: run error: %s", comboKey(p, e), fp.Err)
			}
			for _, v := range fp.Violations {
				fail("%s: %s", comboKey(p, e), v)
			}
		}
		// Engine identity only binds when both runs completed: error
		// strings (deadlock blocked-proc lists) are not part of the
		// determinism contract.
		if fps[0].Err == "" && fps[1].Err == "" {
			for _, d := range fps[0].diff(fps[1]) {
				fail("%s: engine divergence: %s", p, d)
			}
		}
	}
	a := res.Runs[comboKey(protocols[0], engines[0])]
	b := res.Runs[comboKey(protocols[1], engines[0])]
	if a.Err == "" && b.Err == "" && a.MemHash != b.MemHash {
		fail("final memory diverges across protocols: %s=%016x %s=%016x",
			protocols[0], a.MemHash, protocols[1], b.MemHash)
	}
	return res
}

// Render formats a SeedResult for humans: spec line, per-combination
// fingerprints in stable order, then failures.
func (r SeedResult) Render() string {
	out := r.Spec.String() + "\n"
	keys := make([]string, 0, len(r.Runs))
	for k := range r.Runs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		out += fmt.Sprintf("  %-20s %s\n", k, r.Runs[k])
	}
	if !r.Failed() {
		return out + "  ok\n"
	}
	for _, f := range r.Failures {
		out += "  FAIL: " + f + "\n"
	}
	return out
}
