package harness

import (
	"fmt"

	"presto/internal/predict"
)

// predictCalBS is the block size every calibration simulation runs at.
// The predictor extrapolates upward from it (predict.MaxShift powers of
// two), which covers every block size the figure experiments sweep.
const predictCalBS = 32

// predictor caches one calibration per (application, variant, protocol),
// keyed by the figRun at predictCalBS, so a figure's block-size sweep —
// or the whole predict-error table — pays for each calibration simulation
// exactly once.
type predictor map[figRun]*predict.Calibration

// calibration runs (or reuses) the recorded calibration simulation of r's
// program at predictCalBS and distills it.
func (p predictor) calibration(o Options, r figRun) (*predict.Calibration, error) {
	r.bs = predictCalBS
	if cal, ok := p[r]; ok {
		return cal, nil
	}
	m, err := o.simulate(r, true)
	var cal *predict.Calibration
	if err == nil {
		cal, err = predict.Calibrate(m, r.app)
	}
	if err != nil {
		return nil, fmt.Errorf("calibrating %s/%s (variant %v): %w", r.app, r.proto, r.variant, err)
	}
	p[r] = cal
	return cal, nil
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
	o, err := o.withDefaults()
	if err != nil {
		return nil, err
	}
	p := predictor{}
	table := &predict.ErrorTable{}
	for _, fig := range []struct {
		id       string
		versions []figVersion
	}{{"figure5", figure5Versions}, {"figure6", figure6Versions}, {"figure7", figure7Versions()}} {
		for _, v := range fig.versions {
			cal, err := p.calibration(o, v.run)
			if err != nil {
				return nil, fmt.Errorf("%s %s: %w", fig.id, v.label, err)
			}
			pred, err := cal.Predict(predict.Target{BlockSize: v.run.bs})
			if err != nil {
				return nil, fmt.Errorf("%s %s: %w", fig.id, v.label, err)
			}
			m, err := o.simulate(v.run, false)
			if err != nil {
				return nil, fmt.Errorf("%s %s: simulating: %w", fig.id, v.label, err)
			}
			table.Add(fig.id, v.label, v.run.bs, pred.ElapsedNS, int64(m.Elapsed()))
		}
	}
	return table, nil
}

// PredictGateMAE bounds the predict-validate gate: the mean absolute
// elapsed-time error of the PredictValidation table, in percent, must
// stay under it (DESIGN.md §13).
const PredictGateMAE = 15.0

// PredictValidation builds the combined error table the CI
// predict-validate job gates on (PredictGate): every figure 5-7
// configuration plus a chaos seed band at the 2x block-size
// extrapolation (shift 1). Wider chaos extrapolations are validated
// separately with a looser bound (predict.ChaosBand; DESIGN.md §13).
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

// PredictGate checks a PredictValidation table against PredictGateMAE:
// nil under the bound, an error naming the breach otherwise.
func PredictGate(table *predict.ErrorTable) error {
	if mae := table.MAE(); mae >= PredictGateMAE {
		return fmt.Errorf("predict-validate: mean absolute error %.2f%% over %d rows breaches the %.0f%% gate",
			mae, len(table.Rows), PredictGateMAE)
	}
	return nil
}
