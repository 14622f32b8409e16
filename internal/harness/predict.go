package harness

import (
	"fmt"

	"presto/internal/apps/adaptive"
	"presto/internal/apps/barnes"
	"presto/internal/apps/water"
	"presto/internal/predict"
	"presto/internal/rt"
)

// predictCalBS is the block size every calibration simulation runs at.
// The predictor extrapolates upward from it (predict.MaxShift powers of
// two), which covers every block size the figure experiments sweep.
const predictCalBS = 32

// predictor caches one calibration per (application, protocol, variant)
// so a figure experiment's block-size sweep — or the whole predict-error
// table — pays for each calibration simulation exactly once.
type predictor struct {
	cals map[string]*predict.Calibration
}

func newPredictor() *predictor {
	return &predictor{cals: map[string]*predict.Calibration{}}
}

// calibration runs (or reuses) one recorded calibration simulation and
// distills it. build must run the application at predictCalBS with the
// profiler and recorder enabled.
func (p *predictor) calibration(key, app string, build func() (*rt.Machine, error)) (*predict.Calibration, error) {
	if cal, ok := p.cals[key]; ok {
		return cal, nil
	}
	m, err := build()
	if err != nil {
		return nil, fmt.Errorf("calibrating %s: %w", key, err)
	}
	cal, err := predict.Calibrate(m, app)
	if err != nil {
		return nil, fmt.Errorf("calibrating %s: %w", key, err)
	}
	p.cals[key] = cal
	return cal, nil
}

func (p *predictor) adaptive(o Options, proto rt.ProtocolKind) (*predict.Calibration, error) {
	return p.calibration("adaptive/"+string(proto), "adaptive", func() (*rt.Machine, error) {
		cfg := adaptiveCfg(o, proto, predictCalBS)
		cfg.Machine.Profile = true
		cfg.Machine.Record = true
		r, err := adaptive.Run(cfg)
		if err != nil {
			return nil, err
		}
		return r.Machine, nil
	})
}

func (p *predictor) barnes(o Options, proto rt.ProtocolKind, spmd bool) (*predict.Calibration, error) {
	key := fmt.Sprintf("barnes/%s/spmd=%v", proto, spmd)
	return p.calibration(key, "barnes", func() (*rt.Machine, error) {
		cfg := barnesCfg(o, proto, predictCalBS, spmd)
		cfg.Machine.Profile = true
		cfg.Machine.Record = true
		r, err := barnes.Run(cfg)
		if err != nil {
			return nil, err
		}
		return r.Machine, nil
	})
}

func (p *predictor) water(o Options, proto rt.ProtocolKind, splash bool) (*predict.Calibration, error) {
	key := fmt.Sprintf("water/%s/splash=%v", proto, splash)
	return p.calibration(key, "water", func() (*rt.Machine, error) {
		cfg := waterCfg(o, proto, predictCalBS, splash)
		cfg.Machine.Profile = true
		cfg.Machine.Record = true
		r, err := water.Run(cfg)
		if err != nil {
			return nil, err
		}
		return r.Machine, nil
	})
}

// predictedRow extrapolates one figure row from a calibration. At the
// calibration block size the row is bit-identical to the simulated row.
func predictedRow(cal *predict.Calibration, label string, bs int) (Row, error) {
	pr, err := cal.Predict(predict.Target{BlockSize: bs})
	if err != nil {
		return Row{}, fmt.Errorf("%s: %w", label, err)
	}
	return Row{Label: label, BlockSize: bs, B: pr.Breakdown, C: pr.Counters}, nil
}

// PredictCapable reports whether an experiment honors Options.Predict —
// the figure sweeps and the block-size sweep, whose rows are
// (application, protocol, block size) points a calibration extrapolates
// to. The serving layer rejects predict specs for any other experiment so
// the spec space stays canonical (a predict flag that changes nothing
// must not mint a second cache identity for the same result).
func PredictCapable(id string) bool {
	switch id {
	case "figure5", "figure6", "figure7", "sweep":
		return true
	}
	return false
}

// predictNote annotates a figure result produced by the analytical path.
func predictNote(res *Result, cals int) {
	res.AddNote("rows predicted analytically from %d recorded %dB calibration run(s) — no per-row simulation (internal/predict)",
		cals, predictCalBS)
}

func init() {
	Register(Experiment{
		ID:    "predict-error",
		Title: "Analytical predictor vs full simulation (figure 5-7 sweeps)",
		Paper: "The predictor answers the figure 5-7 block-size sweeps from one calibration simulation per program/protocol; this experiment validates every predicted elapsed time against the corresponding full simulation.",
		Run:   runPredictError,
	})
}

// figureTargets enumerates every figure 5-7 (version, block size)
// configuration the predictor must reproduce, keyed by the calibration it
// extrapolates from.
type figureTarget struct {
	experiment string
	label      string
	bs         int
	cal        func(*predictor, Options) (*predict.Calibration, error)
	sim        func(Options) (rt.Breakdown, error)
}

func figureTargets() []figureTarget {
	var out []figureTarget
	// Figure 5: Adaptive, stache vs predictive at 32B and 256B.
	for _, v := range []struct {
		label string
		proto rt.ProtocolKind
		bs    int
	}{
		{"C** unopt (32)", rt.ProtoStache, 32},
		{"C** opt (32)", rt.ProtoPredictive, 32},
		{"C** unopt (256)", rt.ProtoStache, 256},
		{"C** opt (256)", rt.ProtoPredictive, 256},
	} {
		v := v
		out = append(out, figureTarget{
			experiment: "figure5", label: v.label, bs: v.bs,
			cal: func(p *predictor, o Options) (*predict.Calibration, error) { return p.adaptive(o, v.proto) },
			sim: func(o Options) (rt.Breakdown, error) {
				r, err := adaptive.Run(adaptiveCfg(o, v.proto, v.bs))
				if err != nil {
					return rt.Breakdown{}, err
				}
				return r.Breakdown, nil
			},
		})
	}
	// Figure 6: Barnes, including the hand-optimized SPMD write-update bar.
	for _, v := range []struct {
		label string
		proto rt.ProtocolKind
		bs    int
		spmd  bool
	}{
		{"C** unopt (32)", rt.ProtoStache, 32, false},
		{"C** opt (32)", rt.ProtoPredictive, 32, false},
		{"C** unopt (1024)", rt.ProtoStache, 1024, false},
		{"C** opt (1024)", rt.ProtoPredictive, 1024, false},
		{"SPMD write-update (1024)", rt.ProtoUpdate, 1024, true},
	} {
		v := v
		out = append(out, figureTarget{
			experiment: "figure6", label: v.label, bs: v.bs,
			cal: func(p *predictor, o Options) (*predict.Calibration, error) { return p.barnes(o, v.proto, v.spmd) },
			sim: func(o Options) (rt.Breakdown, error) {
				r, err := barnes.Run(barnesCfg(o, v.proto, v.bs, v.spmd))
				if err != nil {
					return rt.Breakdown{}, err
				}
				return r.Breakdown, nil
			},
		})
	}
	// Figure 7: Water sweeps each version over three block sizes.
	for _, v := range []struct {
		prefix string
		proto  rt.ProtocolKind
		splash bool
	}{
		{"C** opt", rt.ProtoPredictive, false},
		{"C** unopt", rt.ProtoStache, false},
		{"Splash", rt.ProtoStache, true},
	} {
		v := v
		for _, bs := range []int{32, 128, 256} {
			bs := bs
			out = append(out, figureTarget{
				experiment: "figure7", label: fmt.Sprintf("%s (%d)", v.prefix, bs), bs: bs,
				cal: func(p *predictor, o Options) (*predict.Calibration, error) { return p.water(o, v.proto, v.splash) },
				sim: func(o Options) (rt.Breakdown, error) {
					r, err := water.Run(waterCfg(o, v.proto, bs, v.splash))
					if err != nil {
						return rt.Breakdown{}, err
					}
					return r.Breakdown, nil
				},
			})
		}
	}
	return out
}

// runPredictError validates the analytical predictor against full
// simulation on every figure 5-7 configuration: one calibration per
// (program, protocol, variant), one simulation per target, one error row
// each. The table is the experiment's CSV payload (and the golden under
// testdata/golden/predict-error.csv).
func runPredictError(o Options) (*Result, error) {
	table, err := FigureErrorTable(o)
	if err != nil {
		return nil, err
	}
	res := &Result{
		ID:    "predict-error",
		Title: "Analytical predictor vs full simulation",
		Error: table,
	}
	res.AddNote("mean absolute elapsed-time error %.2f%% over %d figure 5-7 configurations (max %.2f%%)",
		table.MAE(), len(table.Rows), table.MaxErr())
	res.AddNote("rows at the %dB calibration size are exact by construction (the predictor's identity guarantee)", predictCalBS)
	return res, nil
}

// FigureErrorTable builds the predicted-vs-simulated comparison over the
// figure 5-7 sweeps — the structured half of the CI predict-validate gate
// (the other half is the chaos seed band, predict.ChaosBandShifts).
func FigureErrorTable(o Options) (*predict.ErrorTable, error) {
	o = o.withDefaults()
	p := newPredictor()
	table := &predict.ErrorTable{}
	for _, t := range figureTargets() {
		cal, err := t.cal(p, o)
		if err != nil {
			return nil, fmt.Errorf("%s %s: %w", t.experiment, t.label, err)
		}
		pred, err := cal.Predict(predict.Target{BlockSize: t.bs})
		if err != nil {
			return nil, fmt.Errorf("%s %s: %w", t.experiment, t.label, err)
		}
		bd, err := t.sim(o)
		if err != nil {
			return nil, fmt.Errorf("%s %s: simulating: %w", t.experiment, t.label, err)
		}
		table.Add(t.experiment, t.label, t.bs, pred.ElapsedNS, int64(bd.Elapsed))
	}
	return table, nil
}

// PredictValidation builds the combined error table the CI
// predict-validate job gates on: every figure 5-7 configuration plus a
// chaos seed band at the 2x block-size extrapolation (shift 1). Wider
// chaos extrapolations are validated separately with a looser bound
// (predict.ChaosBand; DESIGN.md §13).
func PredictValidation(o Options, seeds int) (*predict.ErrorTable, error) {
	table, err := FigureErrorTable(o)
	if err != nil {
		return nil, err
	}
	band, err := predict.ChaosBandShifts(seeds, []int{1})
	if err != nil {
		return nil, err
	}
	table.Rows = append(table.Rows, band.Rows...)
	return table, nil
}
