package predict

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"strings"
	"testing"
	"unsafe"

	"presto/internal/apps/adaptive"
	"presto/internal/chaos"
	"presto/internal/memory"
	"presto/internal/network"
	"presto/internal/rt"
	"presto/internal/tempest"
)

// calSpec derives a chaos workload pinned to the predictor's calibration
// conventions: 32-byte blocks, no jitter.
func calSpec(seed int64) chaos.Spec {
	s := chaos.Derive(seed, chaos.ScaleQuick)
	s.BlockSize = 32
	s.JitterPct = 0
	return s
}

// TestIdentityExact locks the model's anchor: predicting the calibration
// configuration itself must reproduce elapsed time, breakdown and
// counters exactly — not approximately.
func TestIdentityExact(t *testing.T) {
	for _, proto := range []rt.ProtocolKind{rt.ProtoStache, rt.ProtoPredictive} {
		s := calSpec(7)
		rc := rt.Config{Protocol: proto}
		m, err := chaos.ExecuteCalibration(s, rc)
		if err != nil {
			t.Fatal(err)
		}
		cal, err := Calibrate(m, "identity")
		if err != nil {
			t.Fatal(err)
		}
		p, err := cal.Predict(Target{})
		if err != nil {
			t.Fatal(err)
		}
		if p.ElapsedNS != cal.ElapsedNS {
			t.Fatalf("%s: identity elapsed %d != calibration %d", proto, p.ElapsedNS, cal.ElapsedNS)
		}
		if p.Breakdown != m.Breakdown() {
			t.Fatalf("%s: identity breakdown %+v != %+v", proto, p.Breakdown, m.Breakdown())
		}
		if p.Counters != m.Counters() {
			t.Fatalf("%s: identity counters %+v != %+v", proto, p.Counters, m.Counters())
		}
	}
}

// TestRecordingDoesNotPerturb asserts the observation-only contract: a
// calibration run's fingerprint is byte-identical to a plain run's.
func TestRecordingDoesNotPerturb(t *testing.T) {
	s := calSpec(11)
	rc := rt.Config{Protocol: rt.ProtoPredictive}
	plain := chaos.Execute(s, rc)
	if plain.Err != "" {
		t.Fatal(plain.Err)
	}
	m, err := chaos.ExecuteCalibration(s, rc)
	if err != nil {
		t.Fatal(err)
	}
	if got := int64(m.Elapsed()); got != plain.ElapsedNS {
		t.Fatalf("recording perturbed the run: elapsed %d != %d", got, plain.ElapsedNS)
	}
	if got := m.Counters(); got != plain.Counters {
		t.Fatalf("recording perturbed the run: counters %+v != %+v", got, plain.Counters)
	}
}

// TestBlockSizeExtrapolation sanity-checks the block-size axis on a few
// seeds: predictions must land within a loose band of the simulation
// (the strict <15% MAE gate runs over the full chaos band and figure
// sweeps in CI).
func TestBlockSizeExtrapolation(t *testing.T) {
	table := &ErrorTable{}
	for seed := int64(0); seed < 4; seed++ {
		s := calSpec(seed)
		proto := rt.ProtoStache
		if seed%2 == 1 {
			proto = rt.ProtoPredictive
		}
		rc := rt.Config{Protocol: proto}
		m, err := chaos.ExecuteCalibration(s, rc)
		if err != nil {
			t.Fatal(err)
		}
		cal, err := Calibrate(m, "bs")
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range []int{1, 2, 3} {
			bs := 32 << k
			p, err := cal.Predict(Target{BlockSize: bs})
			if err != nil {
				t.Fatal(err)
			}
			sim := s
			sim.BlockSize = bs
			fp := chaos.Execute(sim, rc)
			if fp.Err != "" {
				t.Fatal(fp.Err)
			}
			table.Add("bs", fmt.Sprintf("seed %d", seed), bs, p.ElapsedNS, fp.ElapsedNS)
		}
	}
	t.Logf("block-size extrapolation MAE %.2f%% (max %.2f%%)", table.MAE(), table.MaxErr())
	if mae := table.MAE(); mae > 25 {
		t.Fatalf("block-size extrapolation MAE %.2f%% exceeds the 25%% smoke bound", mae)
	}
}

// TestNetworkExtrapolation predicts a calibrated workload onto different
// interconnects, including a clustered one, and checks against simulation.
func TestNetworkExtrapolation(t *testing.T) {
	s := calSpec(3)
	s.Net = "cm5"
	rc := rt.Config{Protocol: rt.ProtoStache}
	m, err := chaos.ExecuteCalibration(s, rc)
	if err != nil {
		t.Fatal(err)
	}
	cal, err := Calibrate(m, "net")
	if err != nil {
		t.Fatal(err)
	}
	table := &ErrorTable{}
	for _, preset := range []string{"now", "hwdsm", fmt.Sprintf("cluster:%dx2", s.Nodes/2)} {
		if s.Nodes%2 != 0 {
			break
		}
		net, err := network.Preset(preset)
		if err != nil {
			t.Fatal(err)
		}
		p, err := cal.Predict(Target{Net: net})
		if err != nil {
			t.Fatal(err)
		}
		sim := s
		sim.Net = preset
		fp := chaos.Execute(sim, rc)
		if fp.Err != "" {
			t.Fatal(fp.Err)
		}
		table.Add("net", preset, s.BlockSize, p.ElapsedNS, fp.ElapsedNS)
	}
	t.Logf("network extrapolation MAE %.2f%% (max %.2f%%)", table.MAE(), table.MaxErr())
	if mae := table.MAE(); mae > 40 {
		t.Fatalf("network extrapolation MAE %.2f%% exceeds the 40%% smoke bound", mae)
	}
}

// TestChaosBandSmoke runs a small band end to end. The chaos band is
// adversarial by construction (randomized conflict storms and RMW
// contention); its standalone error runs higher than the structured
// figure workloads, so the smoke bound here is looser than the 15%
// CI gate, which applies to the combined figure-sweep + chaos table.
func TestChaosBandSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos band runs full simulations")
	}
	table, err := ChaosBand(6)
	if err != nil {
		t.Fatal(err)
	}
	if len(table.Rows) != 6*len(chaosBandShifts) {
		t.Fatalf("got %d rows, want %d", len(table.Rows), 6*len(chaosBandShifts))
	}
	t.Logf("chaos band MAE %.2f%% (max %.2f%%)", table.MAE(), table.MaxErr())
	if mae := table.MAE(); mae > 30 {
		t.Fatalf("chaos band MAE %.2f%% exceeds the 30%% smoke bound", mae)
	}
}

// TestSweepDigest pins Predict and Phases bit for bit over the whole sweep
// grid — node counts 2..37 × {cm5, now, hwdsm, cluster:4x8} × shifts
// 0..MaxShift — from small recorded Adaptive calibrations, one per
// protocol. Any change to the calibration replay's merge order (including
// its tie-break) or to the model's arithmetic moves a digest. Each machine
// is calibrated twice: calibration must leave the record as it found it.
func TestSweepDigest(t *testing.T) {
	want := map[rt.ProtocolKind]string{
		rt.ProtoStache:     "bec89263e5adfaf5",
		rt.ProtoPredictive: "c8d367c7df6b873b",
		rt.ProtoUpdate:     "c2642434cf0e0c06",
	}
	var nets []*network.Params
	for _, name := range []string{"cm5", "now", "hwdsm", "cluster:4x8"} {
		np, err := network.Preset(name)
		if err != nil {
			t.Fatal(err)
		}
		nets = append(nets, np)
	}
	for _, proto := range []rt.ProtocolKind{rt.ProtoStache, rt.ProtoPredictive, rt.ProtoUpdate} {
		r, err := adaptive.Run(adaptive.Config{
			Machine: rt.Config{Nodes: 16, BlockSize: 32, Protocol: proto, Profile: true, Record: true},
			Size:    16, Iters: 8, RefineEvery: 4,
		})
		if err != nil {
			t.Fatal(err)
		}
		for pass := 1; pass <= 2; pass++ {
			cal, err := Calibrate(r.Machine, "adaptive")
			if err != nil {
				t.Fatal(err)
			}
			h := fnv.New64a()
			for n := 2; n <= 37; n++ {
				for _, net := range nets {
					for k := 0; k <= MaxShift; k++ {
						tg := Target{BlockSize: 32 << k, Net: net, Nodes: n}
						p, err := cal.Predict(tg)
						if err != nil {
							t.Fatal(err)
						}
						fc, err := cal.Phases(tg)
						if err != nil {
							t.Fatal(err)
						}
						binary.Write(h, binary.LittleEndian, p)
						for _, f := range fc {
							binary.Write(h, binary.LittleEndian, [2]int64{int64(f.Phase), f.SpanNS})
						}
					}
				}
			}
			if got := fmt.Sprintf("%016x", h.Sum64()); got != want[proto] {
				t.Errorf("%s, calibration %d: sweep digest %s, want %s", proto, pass, got, want[proto])
			}
		}
	}
}

// TestRecordBytesPerAccess bounds the calibration record of a quick-scale
// Adaptive run (the predict-sweep benchmark's calibration) at 9 bytes per
// access, counting every slice's and block table's capacity, and the
// block index map at an upper estimate of 48 bytes per entry.
func TestRecordBytesPerAccess(t *testing.T) {
	r, err := adaptive.Run(adaptive.Config{
		Machine: rt.Config{Nodes: 16, BlockSize: 32, Protocol: rt.ProtoStache, Profile: true, Record: true},
		Size:    64, Iters: 30, RefineEvery: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	var bytes, accs uintptr
	for _, n := range r.Machine.Nodes {
		rec := n.Rec
		rec.CloseSlice() // as Calibrate does
		bytes += uintptr(cap(rec.Slices))*unsafe.Sizeof(tempest.Slice{}) +
			uintptr(cap(rec.Blocks))*unsafe.Sizeof(memory.Block(0)) + uintptr(len(rec.Blocks))*48
		for _, s := range rec.Slices {
			bytes += uintptr(cap(s.Accs))*unsafe.Sizeof(tempest.SliceAcc{}) + uintptr(cap(s.Big))*8
			accs += uintptr(len(s.Accs))
		}
	}
	perAcc := float64(bytes) / float64(accs)
	t.Logf("%d accesses, %.2f B/access", accs, perAcc)
	if perAcc > 9 {
		t.Fatalf("record keeps %.2f B per access, want <= 9", perAcc)
	}
}

// TestPredictZeroAlloc locks the sweep hot path: Predict on a built
// calibration allocates nothing.
func TestPredictZeroAlloc(t *testing.T) {
	cal := Synthetic(16, 4)
	nets := []*network.Params{network.CM5(), network.NOW(), network.HardwareDSM()}
	var sink int64
	allocs := testing.AllocsPerRun(100, func() {
		for _, net := range nets {
			for k := 0; k <= MaxShift; k++ {
				p, err := cal.Predict(Target{BlockSize: 32 << k, Net: net})
				if err != nil {
					t.Fatal(err)
				}
				sink += p.ElapsedNS
			}
		}
	})
	if allocs != 0 {
		t.Fatalf("Predict allocates %.1f per sweep, want 0", allocs)
	}
	_ = sink
}

// TestTargetValidation covers the error paths.
func TestTargetValidation(t *testing.T) {
	cal := Synthetic(4, 2)
	if _, err := cal.Predict(Target{BlockSize: 48}); err != ErrBlockSize {
		t.Fatalf("48B target: got %v, want ErrBlockSize", err)
	}
	if _, err := cal.Predict(Target{BlockSize: 32 << (MaxShift + 1)}); err != ErrBlockSize {
		t.Fatalf("oversized target: got %v, want ErrBlockSize", err)
	}
	if _, err := cal.Predict(Target{Nodes: -1}); err != ErrNodes {
		t.Fatalf("negative nodes: got %v, want ErrNodes", err)
	}
	if _, err := cal.Predict(Target{BlockSize: 64, Nodes: 8}); err != nil {
		t.Fatalf("valid target rejected: %v", err)
	}
}

// TestCalibrateRequiresInstrumentation rejects machines missing the
// profiler or recorder.
func TestCalibrateRequiresInstrumentation(t *testing.T) {
	m := rt.New(rt.Config{Nodes: 2, BlockSize: 32})
	if _, err := Calibrate(m, "x"); err == nil {
		t.Fatal("calibrated a machine without Profile/Record")
	}
}

// TestCalibrateNodeBound refuses a calibration beyond MaxNodes: the
// replay's 64-bit sharer masks cannot name node 64 or above, so every
// access by such a node would count as a fault.
func TestCalibrateNodeBound(t *testing.T) {
	m := rt.New(rt.Config{Nodes: MaxNodes + 1, BlockSize: 32, Profile: true, Record: true})
	if _, err := Calibrate(m, "x"); err == nil || !strings.Contains(err.Error(), "64-node bound") {
		t.Fatalf("calibrated %d nodes: err %v, want the 64-node bound", MaxNodes+1, err)
	}
}

// TestPhasesForecast checks the per-phase view: identity spans sum to the
// calibration elapsed time (after normalization) and every calibration
// phase appears.
func TestPhasesForecast(t *testing.T) {
	s := calSpec(5)
	rc := rt.Config{Protocol: rt.ProtoStache}
	m, err := chaos.ExecuteCalibration(s, rc)
	if err != nil {
		t.Fatal(err)
	}
	cal, err := Calibrate(m, "phases")
	if err != nil {
		t.Fatal(err)
	}
	fc, err := cal.Phases(Target{})
	if err != nil {
		t.Fatal(err)
	}
	if len(fc) == 0 || fc[0].Phase != -1 {
		t.Fatalf("forecast must lead with the (outside) phase, got %+v", fc)
	}
	var sum int64
	for _, f := range fc {
		sum += f.SpanNS
	}
	if sum == 0 {
		t.Fatal("zero total span")
	}
}

// TestErrorTableCSV locks the CSV shape.
func TestErrorTableCSV(t *testing.T) {
	table := &ErrorTable{}
	table.Add("figure5", "C** opt (32)", 32, 1_000_000, 1_100_000)
	var b strings.Builder
	table.WriteCSV(&b)
	want := "experiment,version,block_bytes,predicted_s,simulated_s,abs_pct_err\nfigure5,C** opt (32),32,0.001000,0.001100,9.09\n"
	if b.String() != want {
		t.Fatalf("CSV mismatch:\n%q\nwant\n%q", b.String(), want)
	}
	if table.MAE() == 0 || table.MaxErr() == 0 {
		t.Fatal("error stats empty")
	}
}
