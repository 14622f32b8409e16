package predict

import (
	"fmt"

	"presto/internal/chaos"
	"presto/internal/rt"
)

// chaosBandShifts are the block-size extrapolations each seed validates
// (from the forced 32-byte calibration point).
var chaosBandShifts = []int{1, 2, 3} // 64, 128, 256 bytes

// ChaosBand sweeps a band of chaos seeds: each seed derives a synthetic
// workload, runs one 32-byte calibration simulation, and validates the
// predictor against full simulations at larger block sizes. Seeds
// alternate protocol (stache on even, predictive on odd). Jitter is
// forced off — the predictor models deterministic interconnects, and a
// jittered band would measure the jitter, not the model.
func ChaosBand(seeds int) (*ErrorTable, error) {
	return ChaosBandShifts(seeds, chaosBandShifts)
}

// ChaosBandShifts is ChaosBand restricted to the given block-size shifts.
// The CI predict-validate gate runs the 2x band (shift 1), where the
// adversarial seeds stay inside the model's gated error budget; the wider
// extrapolations are reported as an informational table (DESIGN.md §13).
func ChaosBandShifts(seeds int, shifts []int) (*ErrorTable, error) {
	table := &ErrorTable{}
	for seed := int64(0); seed < int64(seeds); seed++ {
		s := chaos.Derive(seed, chaos.ScaleQuick)
		s.BlockSize = 32
		s.JitterPct = 0
		proto := rt.ProtoStache
		if seed%2 == 1 {
			proto = rt.ProtoPredictive
		}
		rc := rt.Config{Protocol: proto}

		m, err := chaos.ExecuteCalibration(s, rc)
		if err != nil {
			return nil, fmt.Errorf("seed %d: %w", seed, err)
		}
		cal, err := Calibrate(m, fmt.Sprintf("chaos-%d", seed))
		if err != nil {
			return nil, fmt.Errorf("seed %d: %w", seed, err)
		}
		for _, k := range shifts {
			bs := s.BlockSize << k
			p, err := cal.Predict(Target{BlockSize: bs})
			if err != nil {
				return nil, fmt.Errorf("seed %d bs %d: %w", seed, bs, err)
			}
			sim := s
			sim.BlockSize = bs
			fp := chaos.Execute(sim, rc)
			if fp.Err != "" {
				return nil, fmt.Errorf("seed %d bs %d: simulation failed: %s", seed, bs, fp.Err)
			}
			table.Add("chaos-band", fmt.Sprintf("seed %d %s", seed, proto), bs, p.ElapsedNS, fp.ElapsedNS)
		}
	}
	return table, nil
}
