package harness

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"presto/internal/apps/adaptive"
	"presto/internal/apps/barnes"
	"presto/internal/apps/water"
	"presto/internal/rt"
)

// phasesFor runs one small configuration of the named app and returns the
// machine's per-phase breakdown.
func phasesFor(t *testing.T, app string, proto rt.ProtocolKind) []rt.PhaseStat {
	t.Helper()
	mc := rt.Config{Nodes: 8, BlockSize: 32, Protocol: proto}
	var m *rt.Machine
	var err error
	switch app {
	case "adaptive":
		var r *adaptive.Result
		r, err = adaptive.Run(adaptive.Config{Machine: mc, Size: 32, Iters: 10, RefineEvery: 4})
		if err == nil {
			m = r.Machine
		}
	case "barnes":
		var r *barnes.Result
		r, err = barnes.Run(barnes.Config{Machine: mc, Bodies: 512, Iters: 2})
		if err == nil {
			m = r.Machine
		}
	case "water":
		var r *water.Result
		r, err = water.Run(water.Config{Machine: mc, Molecules: 64, Steps: 3})
		if err == nil {
			m = r.Machine
		}
	default:
		t.Fatalf("unknown app %q", app)
	}
	if err != nil {
		t.Fatalf("%s/%s: %v", app, proto, err)
	}
	return m.PhaseBreakdown()
}

// TestScheduleCoverageByProtocol is the observability acceptance check:
// the per-phase schedule coverage must be positive for the optimized
// (predictive) versions of all three paper applications, and exactly
// zero — no pre-sends received, none hit — for the unoptimized Stache
// runs.
func TestScheduleCoverageByProtocol(t *testing.T) {
	for _, app := range []string{"adaptive", "barnes", "water"} {
		t.Run(app, func(t *testing.T) {
			opt := phasesFor(t, app, rt.ProtoPredictive)
			anyCovered := false
			for _, p := range opt {
				if p.Coverage() > 0 {
					anyCovered = true
				}
				if p.PresendHits > p.PresendsIn {
					t.Fatalf("phase %s: hits %d > presends %d", p.Name, p.PresendHits, p.PresendsIn)
				}
			}
			if !anyCovered {
				t.Fatalf("predictive %s: no phase shows schedule coverage > 0: %+v", app, opt)
			}
			unopt := phasesFor(t, app, rt.ProtoStache)
			if len(unopt) == 0 {
				t.Fatalf("stache %s recorded no phases", app)
			}
			for _, p := range unopt {
				if p.PresendsIn != 0 || p.PresendHits != 0 || p.Coverage() != 0 {
					t.Fatalf("stache %s phase %s: presends %d hits %d coverage %v, want all zero",
						app, p.Name, p.PresendsIn, p.PresendHits, p.Coverage())
				}
			}
		})
	}
}

func TestRenderIncludesPhaseBreakdown(t *testing.T) {
	res := &Result{ID: "x", Title: "t"}
	res.Rows = append(res.Rows, Row{
		Label: "opt (32)", BlockSize: 32,
		B: rt.Breakdown{Elapsed: 1000, Compute: 500, RemoteWait: 300, Presend: 100, Sync: 100},
		Phases: []rt.PhaseStat{{
			Phase: 2, Name: "forces", Iters: 3,
			RemoteWaitNS: 1500, PresendNS: 700,
			ReadFaults: 4, PresendsIn: 12, PresendHits: 12,
		}},
	})
	var buf bytes.Buffer
	res.Render(&buf)
	out := buf.String()
	for _, want := range []string{"per-phase breakdown", "forces", "hit-rate", "75.0%"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
}

func TestWriteJSON(t *testing.T) {
	res := &Result{ID: "figure9", Title: "t", Notes: []string{"n"}}
	res.Rows = append(res.Rows, Row{
		Label: "v1", BlockSize: 64,
		Phases: []rt.PhaseStat{{Phase: 1, Name: "p", Iters: 2, PresendsIn: 3, PresendHits: 2}},
	})
	var buf bytes.Buffer
	if err := WriteJSON(&buf, []*Result{res}); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Experiments []struct {
			ID   string `json:"id"`
			Rows []struct {
				Label      string `json:"label"`
				BlockBytes int    `json:"block_bytes"`
				Phases     []struct {
					Name        string `json:"name"`
					PresendsIn  int64  `json:"presends_in"`
					PresendHits int64  `json:"presend_hits"`
				} `json:"phases"`
			} `json:"rows"`
		} `json:"experiments"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("not valid JSON: %v\n%s", err, buf.String())
	}
	if len(doc.Experiments) != 1 || doc.Experiments[0].ID != "figure9" {
		t.Fatalf("doc = %+v", doc)
	}
	r := doc.Experiments[0].Rows[0]
	if r.Label != "v1" || r.BlockBytes != 64 || len(r.Phases) != 1 || r.Phases[0].PresendHits != 2 {
		t.Fatalf("row = %+v", r)
	}
	// A row without a profile encodes no profile key at all, so JSON
	// from a run without Options.Profile keeps its bytes.
	if bytes.Contains(buf.Bytes(), []byte(`"profile"`)) {
		t.Fatalf("unprofiled row encodes a profile:\n%s", buf.String())
	}
}

// TestProfileInJSON: under Options.Profile every figure row's JSON
// carries its causal attribution profile.
func TestProfileInJSON(t *testing.T) {
	e, _ := ByID("figure5")
	res, err := RunExperiment(e, Options{Scale: Quick, Machine: rt.Config{Profile: true}})
	if err != nil {
		t.Fatal(err)
	}
	b, err := res.JSON()
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Rows []struct {
			Label   string          `json:"label"`
			Profile json.RawMessage `json:"profile"`
		} `json:"rows"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Rows) != len(figure5Versions) {
		t.Fatalf("%d rows, want %d", len(doc.Rows), len(figure5Versions))
	}
	for _, r := range doc.Rows {
		if len(r.Profile) == 0 || string(r.Profile) == "null" {
			t.Errorf("%s: row JSON has no profile", r.Label)
		}
	}
}
