package rt_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"presto/internal/memory"
	"presto/internal/rt"
	"presto/internal/sim"
	"presto/internal/tempest"
)

// runsProg is the differential workload for the block-run accessors. Each
// iteration, every node writes two runs of words (one inside its own part
// of the array, pushed to its sharers under the update protocol, and one
// anywhere, so writers contend), then reads three runs
// — float64s, uint64s, and uint64s one block-bounded access at a time —
// and sums what it read into sums. Runs start at seeded random words,
// mostly misaligned to the block, and cross one to three blocks. With
// runs false every run is the equivalent per-word loop, in the same order.
func runsProg(m *rt.Machine, runs bool, sums []float64) rt.Program {
	wpb := m.Cfg.BlockSize / 8 // words per block
	n := 16 * wpb * m.Cfg.Nodes
	arr := m.NewArray1D("data", n, 1, false)
	return func(w *rt.Worker) {
		rng := rand.New(rand.NewSource(int64(w.ID) + 1))
		// span picks a run inside [lo, hi) words crossing 1-3 blocks.
		span := func(lo, hi int) (memory.Addr, int) {
			nb := 1 + rng.Intn(3)
			s := lo + rng.Intn(hi-lo-3*wpb)
			first := s % wpb
			most := nb*wpb - first
			least := max(1, (nb-1)*wpb-first+1)
			return arr.At(s, 0), least + rng.Intn(most-least+1)
		}
		buf := make([]float64, 3*wpb)
		ubuf := make([]uint64, 3*wpb)
		lo, hi := arr.MyRange(w)
		for it := 0; it < 4; it++ {
			w.Phase(1, func() {
				for j, r := range [2][2]int{{lo, hi}, {0, n}} {
					a, k := span(r[0], r[1])
					vals := buf[:k]
					for i := range vals {
						vals[i] = float64(1000*it + 100*w.ID + i)
					}
					if runs {
						w.WriteF64s(a, vals)
					} else {
						for i, v := range vals {
							w.WriteF64(a.Add(int64(8*i)), v)
						}
					}
					w.Compute(sim.Time(k) * sim.Microsecond)
					if j == 0 { // update protocol: push the home run
						addrs := make([]memory.Addr, k)
						for i := range addrs {
							addrs[i] = a.Add(int64(8 * i))
						}
						w.PushUpdates(addrs)
					}
				}
			})
			w.Phase(2, func() {
				for kind := 0; kind < 3; kind++ {
					a, k := span(0, n)
					switch {
					case !runs && kind == 0:
						for i := 0; i < k; i++ {
							sums[w.ID] += w.ReadF64(a.Add(int64(8 * i)))
						}
					case !runs:
						for i := 0; i < k; i++ {
							sums[w.ID] += math.Float64frombits(w.ReadU64(a.Add(int64(8 * i))))
						}
					case kind == 0:
						w.ReadF64s(a, buf[:k])
						for _, v := range buf[:k] {
							sums[w.ID] += v
						}
					case kind == 1:
						w.ReadU64s(a, ubuf[:k])
						for _, u := range ubuf[:k] {
							sums[w.ID] += math.Float64frombits(u)
						}
					default:
						for dst := ubuf[:k]; len(dst) > 0; {
							got := w.ReadU64sInBlock(a, dst)
							for _, u := range dst[:got] {
								sums[w.ID] += math.Float64frombits(u)
							}
							dst, a = dst[got:], a.Add(int64(8*got))
						}
					}
					w.Compute(2 * sim.Microsecond)
				}
			})
		}
	}
}

// runsOutcome is everything a run must reproduce exactly.
type runsOutcome struct {
	Hash   uint64
	Report []byte
	Sums   []float64
	Record [][]byte
}

func runRuns(t *testing.T, cfg rt.Config, runs bool) runsOutcome {
	t.Helper()
	m := rt.New(cfg)
	sums := make([]float64, cfg.Nodes)
	if err := m.Run(runsProg(m, runs, sums)); err != nil {
		t.Fatalf("runs=%v: %v", runs, err)
	}
	rep, err := json.Marshal(m.Report())
	if err != nil {
		t.Fatal(err)
	}
	out := runsOutcome{Hash: m.HashMemory(), Report: rep, Sums: sums}
	if cfg.Record {
		for _, n := range m.Nodes {
			n.Rec.CloseSlice()
			b, err := json.Marshal(struct {
				Slices []tempest.Slice
				Blocks []memory.Block
			}{n.Rec.Slices, n.Rec.Blocks})
			if err != nil {
				t.Fatal(err)
			}
			out.Record = append(out.Record, b)
		}
	}
	return out
}

// TestRunAccessorsMatchWordLoop: a block-run accessor is exactly its
// per-word loop — same memory, breakdown, counters, phase statistics,
// kernel statistics and metrics registry, and under recording the same
// sliced access trace and block tables — over every block size, protocol
// and engine.
func TestRunAccessorsMatchWordLoop(t *testing.T) {
	for _, bs := range []int{16, 32, 64, 1024} {
		for _, proto := range []rt.ProtocolKind{rt.ProtoStache, rt.ProtoPredictive, rt.ProtoUpdate} {
			for _, engine := range []rt.EngineKind{rt.EngineSerial, rt.EngineParallel} {
				for _, record := range []bool{false, true} {
					cfg := rt.Config{Nodes: 4, BlockSize: bs, Protocol: proto, Engine: engine, Workers: 2, Record: record}
					if engine == rt.EngineSerial {
						cfg.Workers = 0
					}
					t.Run(fmt.Sprintf("%dB/%s/%s/record=%v", bs, proto, engine, record), func(t *testing.T) {
						word, run := runRuns(t, cfg, false), runRuns(t, cfg, true)
						if word.Hash != run.Hash {
							t.Errorf("HashMemory %016x, per-word %016x", run.Hash, word.Hash)
						}
						if !reflect.DeepEqual(word.Sums, run.Sums) {
							t.Errorf("values read %v, per-word %v", run.Sums, word.Sums)
						}
						if !bytes.Equal(word.Report, run.Report) {
							t.Errorf("metrics report diverges from per-word:\n%s\nvs\n%s", run.Report, word.Report)
						}
						if !reflect.DeepEqual(word.Record, run.Record) {
							t.Error("recorded slices or block tables diverge from per-word")
						}
					})
				}
			}
		}
	}
}
