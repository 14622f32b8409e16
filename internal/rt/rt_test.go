package rt

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"presto/internal/memory"
	"presto/internal/sim"
)

func TestSingleNodeLocalAccess(t *testing.T) {
	m := New(Config{Nodes: 1, BlockSize: 32})
	arr := m.NewArray1D("a", 16, 1, false)
	var got float64
	if err := m.Run(func(w *Worker) {
		w.WriteF64(arr.At(3, 0), 7.5)
		got = w.ReadF64(arr.At(3, 0))
	}); err != nil {
		t.Fatal(err)
	}
	if got != 7.5 {
		t.Fatalf("got %v", got)
	}
	c := m.Counters()
	if c.ReadFaults+c.WriteFaults != 0 {
		t.Fatalf("local access faulted: %+v", c)
	}
}

func TestRemoteReadMiss(t *testing.T) {
	m := New(Config{Nodes: 2, BlockSize: 32})
	arr := m.NewArray1D("a", 2, 1, true) // one element per node
	var got float64
	if err := m.Run(func(w *Worker) {
		if w.ID == 0 {
			w.WriteF64(arr.At(0, 0), 3.25) // local
		}
		w.Barrier()
		if w.ID == 1 {
			got = w.ReadF64(arr.At(0, 0)) // remote miss
		}
		w.Barrier()
	}); err != nil {
		t.Fatal(err)
	}
	if got != 3.25 {
		t.Fatalf("remote read = %v", got)
	}
	c := m.Counters()
	if c.ReadFaults != 1 {
		t.Fatalf("read faults = %d, want 1", c.ReadFaults)
	}
	if m.Nodes[1].Stats.RemoteWait <= 0 {
		t.Fatal("no remote wait accounted")
	}
	// Latency should be in the CM-5 software-DSM ballpark.
	rw := m.Nodes[1].Stats.RemoteWait
	if rw < 50*sim.Microsecond || rw > 400*sim.Microsecond {
		t.Fatalf("remote wait = %v, outside plausible band", rw)
	}
}

func TestWriteInvalidatesReaders(t *testing.T) {
	// Producer-consumer under Stache: each transfer costs a fresh fault.
	const iters = 5
	m := New(Config{Nodes: 2, BlockSize: 32})
	arr := m.NewArray1D("a", 2, 1, true)
	vals := make([]float64, 0, iters)
	if err := m.Run(func(w *Worker) {
		for it := 0; it < iters; it++ {
			if w.ID == 0 {
				w.WriteF64(arr.At(0, 0), float64(it))
			}
			w.Barrier()
			if w.ID == 1 {
				vals = append(vals, w.ReadF64(arr.At(0, 0)))
			}
			w.Barrier()
		}
	}); err != nil {
		t.Fatal(err)
	}
	for it, v := range vals {
		if v != float64(it) {
			t.Fatalf("iteration %d read %v", it, v)
		}
	}
	c := m.Counters()
	// First write is a local hit (home starts ReadWrite); afterwards each
	// iteration pays one read fault and one (invalidating) write fault.
	if c.ReadFaults != iters {
		t.Fatalf("read faults = %d, want %d", c.ReadFaults, iters)
	}
	if c.WriteFaults != iters-1 {
		t.Fatalf("write faults = %d, want %d", c.WriteFaults, iters-1)
	}
}

func TestMigratoryBlock(t *testing.T) {
	// A block written by alternating nodes migrates; values chain.
	const iters = 6
	m := New(Config{Nodes: 2, BlockSize: 32})
	arr := m.NewArray1D("a", 2, 1, true)
	if err := m.Run(func(w *Worker) {
		for it := 0; it < iters; it++ {
			if it%2 == w.ID {
				v := w.ReadF64(arr.At(0, 0))
				w.WriteF64(arr.At(0, 0), v+1)
			}
			w.Barrier()
		}
	}); err != nil {
		t.Fatal(err)
	}
	if got := m.SnapshotF64(arr.At(0, 0)); got != float64(iters) {
		t.Fatalf("final = %v, want %d", got, iters)
	}
}

// producerConsumer runs a phase-structured producer-consumer program and
// returns the machine plus per-iteration read-fault counts on node 1.
func producerConsumer(t *testing.T, proto ProtocolKind, iters int) (*Machine, []int64) {
	t.Helper()
	m := New(Config{Nodes: 2, BlockSize: 32, Protocol: proto})
	arr := m.NewArray1D("a", 8, 1, false) // 4 elements per 32B block
	faults := make([]int64, 0, iters)
	if err := m.Run(func(w *Worker) {
		lo, hi := arr.MyRange(w)
		for it := 0; it < iters; it++ {
			w.Phase(1, func() {
				if w.ID == 0 {
					for i := lo; i < hi; i++ {
						w.WriteF64(arr.At(i, 0), float64(it*100+i))
					}
				}
			})
			before := w.Node.Stats.ReadFaults
			w.Phase(2, func() {
				if w.ID == 1 {
					for i := 0; i < arr.N/2; i++ {
						if got := w.ReadF64(arr.At(i, 0)); got != float64(it*100+i) {
							t.Errorf("iter %d elem %d = %v", it, i, got)
						}
					}
				}
			})
			if w.ID == 1 {
				faults = append(faults, w.Node.Stats.ReadFaults-before)
			}
		}
	}); err != nil {
		t.Fatal(err)
	}
	return m, faults
}

func TestPredictivePresendEliminatesFaults(t *testing.T) {
	const iters = 5
	mStache, fStache := producerConsumer(t, ProtoStache, iters)
	mPred, fPred := producerConsumer(t, ProtoPredictive, iters)

	// Stache: every iteration re-faults on the invalidated blocks.
	for it := 1; it < iters; it++ {
		if fStache[it] == 0 {
			t.Fatalf("stache iteration %d had no read faults", it)
		}
	}
	// Predictive: after the first (recording) iteration, pre-send
	// satisfies the reads locally.
	if fPred[0] == 0 {
		t.Fatal("predictive first iteration should fault (recording)")
	}
	for it := 1; it < iters; it++ {
		if fPred[it] != 0 {
			t.Fatalf("predictive iteration %d still faulted %d times", it, fPred[it])
		}
	}
	cp := mPred.Counters()
	if cp.PresendsSent == 0 {
		t.Fatal("no pre-sends recorded")
	}
	if b := mPred.Breakdown(); b.Presend == 0 {
		t.Fatal("no pre-send time accounted")
	}
	// The predictive version should spend less time waiting for
	// remote data in steady state.
	bs, bp := mStache.Breakdown(), mPred.Breakdown()
	if bp.RemoteWait >= bs.RemoteWait {
		t.Fatalf("remote wait: predictive %v >= stache %v", bp.RemoteWait, bs.RemoteWait)
	}
}

func TestPresendCoalescing(t *testing.T) {
	run := func(noCoalesce bool) *Machine {
		m := New(Config{Nodes: 2, BlockSize: 32, Protocol: ProtoPredictive, NoCoalesce: noCoalesce})
		arr := m.NewArray1D("a", 64, 1, false) // 8 contiguous blocks on node 0
		if err := m.Run(func(w *Worker) {
			for it := 0; it < 3; it++ {
				w.Phase(1, func() {
					if w.ID == 0 {
						for i := 0; i < 32; i++ {
							w.WriteF64(arr.At(i, 0), float64(it+i))
						}
					}
				})
				w.Phase(2, func() {
					if w.ID == 1 {
						for i := 0; i < 32; i++ {
							w.ReadF64(arr.At(i, 0))
						}
					}
				})
			}
		}); err != nil {
			t.Fatal(err)
		}
		return m
	}
	mc := run(false)
	mn := run(true)
	cc, cn := mc.Counters(), mn.Counters()
	if cc.BulkMsgs == 0 {
		t.Fatal("coalescing produced no bulk messages")
	}
	if cn.BulkMsgs != 0 {
		t.Fatal("no-coalesce still sent bulk messages")
	}
	if cc.MsgsSent >= cn.MsgsSent {
		t.Fatalf("coalescing did not reduce messages: %d vs %d", cc.MsgsSent, cn.MsgsSent)
	}
	if mc.Breakdown().Presend >= mn.Breakdown().Presend {
		t.Fatalf("coalescing did not reduce pre-send time: %v vs %v",
			mc.Breakdown().Presend, mn.Breakdown().Presend)
	}
}

func TestConflictBlocksNotPresent(t *testing.T) {
	// Node 0 writes one half of a block while node 1 reads the other half
	// in the same phase: false sharing, recorded as a conflict and never
	// pre-sent.
	m := New(Config{Nodes: 2, BlockSize: 64, Protocol: ProtoPredictive})
	arr := m.NewArray1D("a", 8, 1, false) // 8B elements: elements 0..7 in one 64B block
	if err := m.Run(func(w *Worker) {
		for it := 0; it < 4; it++ {
			w.Phase(1, func() {
				if w.ID == 0 {
					w.WriteF64(arr.At(0, 0), float64(it))
				}
				if w.ID == 1 {
					w.ReadF64(arr.At(3, 0))
				}
			})
		}
	}); err != nil {
		t.Fatal(err)
	}
	c := m.Counters()
	if c.Conflicts == 0 {
		t.Fatal("false sharing not recorded as conflict")
	}
}

func TestReductions(t *testing.T) {
	m := New(Config{Nodes: 4, BlockSize: 32})
	var sum, max float64
	if err := m.Run(func(w *Worker) {
		sum = w.ReduceSum(float64(w.ID + 1))
		max = w.ReduceMax(float64(w.ID * 10))
	}); err != nil {
		t.Fatal(err)
	}
	if sum != 10 {
		t.Fatalf("sum = %v, want 10", sum)
	}
	if max != 30 {
		t.Fatalf("max = %v, want 30", max)
	}
}

func TestUpdateProtocolPush(t *testing.T) {
	m := New(Config{Nodes: 2, BlockSize: 32, Protocol: ProtoUpdate})
	arr := m.NewArray1D("a", 2, 1, true)
	reads := []float64{}
	if err := m.Run(func(w *Worker) {
		// Establish the consumer's copy.
		if w.ID == 1 {
			reads = append(reads, w.ReadF64(arr.At(0, 0)))
		}
		w.Barrier()
		for it := 1; it <= 3; it++ {
			if w.ID == 0 {
				w.WriteF64(arr.At(0, 0), float64(it)) // local, no invalidation
				w.PushUpdates([]memory.Addr{arr.At(0, 0)})
			}
			w.Barrier()
			w.Compute(sim.Millisecond) // let the push land
			if w.ID == 1 {
				reads = append(reads, w.ReadF64(arr.At(0, 0)))
			}
			w.Barrier()
		}
	}); err != nil {
		t.Fatal(err)
	}
	want := []float64{0, 1, 2, 3}
	for i, v := range reads {
		if v != want[i] {
			t.Fatalf("reads = %v, want %v", reads, want)
		}
	}
	c := m.Counters()
	// The producer never write-faults remotely and the consumer only
	// faults once (the initial fetch).
	if c.ReadFaults != 1 {
		t.Fatalf("read faults = %d, want 1", c.ReadFaults)
	}
	if c.PresendsSent == 0 {
		t.Fatal("no pushes sent")
	}
}

func TestSnapshotFollowsOwner(t *testing.T) {
	m := New(Config{Nodes: 2, BlockSize: 32})
	arr := m.NewArray1D("a", 2, 1, true)
	if err := m.Run(func(w *Worker) {
		if w.ID == 1 {
			w.WriteF64(arr.At(0, 0), 9.5) // node 1 takes ownership of node 0's block
		}
		w.Barrier()
	}); err != nil {
		t.Fatal(err)
	}
	if got := m.SnapshotF64(arr.At(0, 0)); got != 9.5 {
		t.Fatalf("snapshot = %v, want 9.5 (owner copy)", got)
	}
}

// TestHashMemoryDoesNotMaterialize: hashing a machine whose 16 MB array no
// node ever touched reads every block as the shared zero block — it
// allocates next to nothing, leaves every Store empty, repeats, and still
// equals FNV-1a over that many zero bytes.
func TestHashMemoryDoesNotMaterialize(t *testing.T) {
	const size = 16 << 20
	m := New(Config{Nodes: 16, BlockSize: 32})
	m.NewArray1D("big", size/8, 1, false)
	if err := m.Run(func(*Worker) {}); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	h1 := m.HashMemory()
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got >= 64<<10 {
		t.Errorf("HashMemory allocated %d bytes over an untouched %d-byte array, want < 64 KB", got, size)
	}
	if h2 := m.HashMemory(); h2 != h1 {
		t.Errorf("HashMemory = %016x, then %016x", h1, h2)
	}
	want := uint64(14695981039346656037)
	for i := 0; i < size; i++ {
		want *= 1099511628211 // FNV-1a of a zero byte: the XOR changes nothing
	}
	if h1 != want {
		t.Errorf("HashMemory = %016x, want %016x (FNV-1a of %d zero bytes)", h1, want, size)
	}
	for _, n := range m.Nodes {
		if got := n.Store.Lines(); got != 0 {
			t.Errorf("node %d holds %d lines after HashMemory, want 0", n.ID, got)
		}
	}
}

// randomProgram builds a deterministic phase-structured random workload:
// owners write their elements, then everyone reads a pseudo-random sample,
// accumulating a checksum.
func randomProgram(proto ProtocolKind, seed int64, nodes, elems, iters int) (checksum float64, elapsed sim.Time, err error) {
	m := New(Config{Nodes: nodes, BlockSize: 32, Protocol: proto})
	arr := m.NewArray1D("x", elems, 1, false)
	var local []float64
	e := m.Run(func(w *Worker) {
		lo, hi := arr.MyRange(w)
		rng := rand.New(rand.NewSource(seed + int64(w.ID)))
		var acc float64
		for it := 0; it < iters; it++ {
			w.Phase(1, func() {
				for i := lo; i < hi; i++ {
					w.WriteF64(arr.At(i, 0), float64(it)+float64(i)/1000)
				}
			})
			w.Phase(2, func() {
				for k := 0; k < elems/2; k++ {
					i := rng.Intn(elems)
					acc += w.ReadF64(arr.At(i, 0))
				}
			})
		}
		total := w.ReduceSum(acc)
		if w.ID == 0 {
			local = append(local, total)
		}
	})
	if e != nil {
		return 0, 0, e
	}
	return local[0], m.Elapsed(), nil
}

func TestProtocolEquivalence(t *testing.T) {
	// The predictive protocol must not change program results, only
	// timing. (Random reads make the sampled set iteration-stable per
	// seed, so both protocols see identical access sequences.)
	for _, seed := range []int64{1, 7, 42} {
		cs, _, err := randomProgram(ProtoStache, seed, 4, 64, 3)
		if err != nil {
			t.Fatal(err)
		}
		cp, _, err := randomProgram(ProtoPredictive, seed, 4, 64, 3)
		if err != nil {
			t.Fatal(err)
		}
		if cs != cp {
			t.Fatalf("seed %d: stache %v != predictive %v", seed, cs, cp)
		}
	}
}

func TestDeterministicElapsed(t *testing.T) {
	for _, proto := range []ProtocolKind{ProtoStache, ProtoPredictive} {
		_, e1, err := randomProgram(proto, 5, 4, 64, 3)
		if err != nil {
			t.Fatal(err)
		}
		_, e2, err := randomProgram(proto, 5, 4, 64, 3)
		if err != nil {
			t.Fatal(err)
		}
		if e1 != e2 {
			t.Fatalf("%s: non-deterministic elapsed %v vs %v", proto, e1, e2)
		}
	}
}

func TestPhaseDirectiveOverheadOnlyWhenRepeated(t *testing.T) {
	m := New(Config{Nodes: 2, BlockSize: 32, Protocol: ProtoPredictive})
	_ = m.NewArray1D("a", 4, 1, false)
	if err := m.Run(func(w *Worker) {
		w.Phase(9, func() { w.Compute(sim.Microsecond) })
	}); err != nil {
		t.Fatal(err)
	}
	if b := m.Breakdown(); b.Presend != 0 {
		t.Fatalf("first phase execution charged pre-send time: %v", b.Presend)
	}
}

func TestFlushSchedulesForcesRelearning(t *testing.T) {
	m := New(Config{Nodes: 2, BlockSize: 32, Protocol: ProtoPredictive})
	arr := m.NewArray1D("a", 8, 1, false)
	var faultsAfterFlush int64
	if err := m.Run(func(w *Worker) {
		for it := 0; it < 6; it++ {
			w.Phase(1, func() {
				if w.ID == 0 {
					for i := 0; i < 4; i++ {
						w.WriteF64(arr.At(i, 0), float64(it))
					}
				}
			})
			before := w.Node.Stats.ReadFaults
			w.Phase(2, func() {
				if w.ID == 1 {
					for i := 0; i < 4; i++ {
						w.ReadF64(arr.At(i, 0))
					}
				}
			})
			if it == 3 {
				w.FlushSchedules(-1)
			}
			if it == 4 && w.ID == 1 {
				faultsAfterFlush = w.Node.Stats.ReadFaults - before
			}
		}
	}); err != nil {
		t.Fatal(err)
	}
	if faultsAfterFlush == 0 {
		t.Fatal("flush did not force re-learning faults")
	}
}

func TestManyNodesSmoke(t *testing.T) {
	// 32 nodes, modest grid, both protocols complete and agree.
	for _, proto := range []ProtocolKind{ProtoStache, ProtoPredictive} {
		m := New(Config{Nodes: 32, BlockSize: 32, Protocol: proto})
		g := m.NewGrid2D("g", 64, 64, 1, RowBlock)
		if err := m.Run(func(w *Worker) {
			lo, hi := g.MyRows(w)
			for it := 0; it < 2; it++ {
				w.Phase(1, func() {
					for i := lo; i < hi; i++ {
						for j := 0; j < g.Cols; j++ {
							w.WriteF64(g.At(i, j, 0), float64(it+i+j))
						}
					}
				})
				w.Phase(2, func() {
					var s float64
					for i := lo; i < hi; i++ {
						up := i - 1
						if up < 0 {
							up = 0
						}
						for j := 0; j < g.Cols; j++ {
							s += w.ReadF64(g.At(up, j, 0))
						}
					}
					_ = s
				})
			}
		}); err != nil {
			t.Fatalf("%s: %v", proto, err)
		}
	}
}

func BenchmarkProducerConsumerStache(b *testing.B) {
	for i := 0; i < b.N; i++ {
		m := New(Config{Nodes: 4, BlockSize: 32})
		arr := m.NewArray1D("a", 32, 1, false)
		if err := m.Run(func(w *Worker) {
			lo, hi := arr.MyRange(w)
			for it := 0; it < 3; it++ {
				w.Phase(1, func() {
					for i := lo; i < hi; i++ {
						w.WriteF64(arr.At(i, 0), float64(it))
					}
				})
				w.Phase(2, func() {
					for i := 0; i < arr.N; i++ {
						w.ReadF64(arr.At(i, 0))
					}
				})
			}
		}); err != nil {
			b.Fatal(err)
		}
	}
}

var _ = fmt.Sprintf // keep fmt for debugging edits
