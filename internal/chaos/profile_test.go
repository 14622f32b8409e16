package chaos

import (
	"bytes"
	"encoding/json"
	"testing"

	"presto/internal/rt"
)

const profMaxEvents = 5_000_000

// TestAttributionInvariantBand runs a 200-seed chaos band with the
// causal profiler on and checks, for every seed:
//   - the attribution invariant (per-node bucket sums equal total
//     simulated time exactly; serial critical-path length equals the
//     end-to-end elapsed time) — enforced by ExecuteProfiled
//   - the fingerprint is byte-identical to the unprofiled run
func TestAttributionInvariantBand(t *testing.T) {
	protos := []rt.ProtocolKind{rt.ProtoStache, rt.ProtoPredictive, rt.ProtoUpdate}
	for seed := int64(0); seed < 200; seed++ {
		s := Derive(seed, ScaleQuick)
		proto := protos[seed%int64(len(protos))]
		base := Execute(s, rt.Config{Protocol: proto, MaxEvents: profMaxEvents})
		fp, p, err := ExecuteProfiled(s, rt.Config{Protocol: proto, MaxEvents: profMaxEvents})
		if err != nil {
			t.Fatalf("seed %d %s: %v\nspec: %s", seed, proto, err, s)
		}
		if d := base.diff(fp); len(d) > 0 {
			t.Fatalf("seed %d %s: profiler perturbed the run: %v", seed, proto, d)
		}
		if p.ElapsedNS != fp.ElapsedNS {
			t.Fatalf("seed %d: profile elapsed %d != fingerprint %d", seed, p.ElapsedNS, fp.ElapsedNS)
		}
	}
}

// TestAttributionInvariantParallel repeats the invariant check under the
// parallel engine on a smaller band, additionally asserting the
// parallel fingerprint (profiled) equals the serial one (unprofiled) —
// the strongest cross-engine × profiler identity.
func TestAttributionInvariantParallel(t *testing.T) {
	for seed := int64(0); seed < 24; seed++ {
		s := Derive(seed, ScaleQuick)
		base := Execute(s, rt.Config{Protocol: rt.ProtoPredictive, MaxEvents: profMaxEvents})
		fp, p, err := ExecuteProfiled(s, rt.Config{Protocol: rt.ProtoPredictive, Engine: rt.EngineParallel, MaxEvents: profMaxEvents})
		if err != nil {
			t.Fatalf("seed %d: %v\nspec: %s", seed, err, s)
		}
		if d := base.diff(fp); len(d) > 0 {
			t.Fatalf("seed %d: profiled parallel diverged from serial: %v", seed, d)
		}
		if p.Flight == nil {
			t.Fatalf("seed %d: parallel profile missing engine flight record", seed)
		}
		if p.Flight.Events == 0 || p.Flight.Windows == 0 {
			t.Fatalf("seed %d: empty engine flight record: %+v", seed, p.Flight)
		}
	}
}

// TestPhaseMetricsParallelMatchesSerial asserts the full metrics report
// — per-phase stats and every OnCommit-deferred registry counter — is
// byte-identical between the serial and parallel engines across a seed
// band. Deferred side effects must replay in commit order, so the JSON
// encodings must match exactly.
func TestPhaseMetricsParallelMatchesSerial(t *testing.T) {
	for seed := int64(0); seed < 16; seed++ {
		s := Derive(seed, ScaleQuick)
		for _, proto := range []rt.ProtocolKind{rt.ProtoStache, rt.ProtoPredictive} {
			_, ms := runMachine(s, rt.Config{Protocol: proto, MaxEvents: profMaxEvents})
			_, mp := runMachine(s, rt.Config{Protocol: proto, Engine: rt.EngineParallel, MaxEvents: profMaxEvents})
			if ms == nil || mp == nil {
				t.Fatalf("seed %d %s: run failed", seed, proto)
			}
			bs := mustJSON(t, ms.Report())
			bp := mustJSON(t, mp.Report())
			if !bytes.Equal(bs, bp) {
				t.Fatalf("seed %d %s: metrics report differs across engines\nspec: %s\nserial:   %.300s\nparallel: %.300s",
					seed, proto, s, bs, bp)
			}
		}
	}
}

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestProfiledGoldenStability pins one profiled run's headline numbers
// so accidental attribution drift is caught: same seed, same buckets.
func TestProfiledGoldenStability(t *testing.T) {
	s := Derive(7, ScaleQuick)
	_, a, err := ExecuteProfiled(s, rt.Config{Protocol: rt.ProtoPredictive, MaxEvents: profMaxEvents})
	if err != nil {
		t.Fatal(err)
	}
	_, b, err := ExecuteProfiled(s, rt.Config{Protocol: rt.ProtoPredictive, MaxEvents: profMaxEvents})
	if err != nil {
		t.Fatal(err)
	}
	ja, jb := mustJSON(t, a), mustJSON(t, b)
	if !bytes.Equal(ja, jb) {
		t.Fatalf("profile not deterministic:\n%s\nvs\n%s", ja, jb)
	}
	if len(a.Path.TopSegments) == 0 {
		t.Fatal("profile has no critical-path segments")
	}
	if a.MachineBuckets().Total() == 0 {
		t.Fatal("profile attributed no time")
	}
}
