package rt

import (
	"testing"

	"presto/internal/memory"
	"presto/internal/sim"
)

func TestSignalRoundTrip(t *testing.T) {
	m := New(Config{Nodes: 3, BlockSize: 32})
	order := []int{}
	if err := m.Run(func(w *Worker) {
		// Token ring: 0 -> 1 -> 2.
		switch w.ID {
		case 0:
			order = append(order, 0)
			w.Signal(1, 10)
		case 1:
			if tag := w.AwaitSignal(); tag != 10 {
				t.Errorf("tag = %d", tag)
			}
			order = append(order, 1)
			w.Signal(2, 20)
		case 2:
			if tag := w.AwaitSignal(); tag != 20 {
				t.Errorf("tag = %d", tag)
			}
			order = append(order, 2)
		}
		w.Barrier()
	}); err != nil {
		t.Fatal(err)
	}
	if len(order) != 3 || order[0] != 0 || order[1] != 1 || order[2] != 2 {
		t.Fatalf("order = %v", order)
	}
}

func TestSignalStashedDuringFaultWait(t *testing.T) {
	// A signal arriving while its target is blocked in a fault must be
	// stashed, not crash the fault loop.
	m := New(Config{Nodes: 2, BlockSize: 32})
	arr := m.NewArray1D("a", 8, 1, false)
	if err := m.Run(func(w *Worker) {
		if w.ID == 1 {
			// Long remote read sequence: plenty of fault-wait windows.
			for i := 0; i < 8; i++ {
				w.ReadF64(arr.At(i%4, 0))
			}
			if tag := w.AwaitSignal(); tag != 5 {
				t.Errorf("tag = %d", tag)
			}
		} else {
			w.Signal(1, 5)
		}
		w.Barrier()
	}); err != nil {
		t.Fatal(err)
	}
}

func TestGatherPrefetches(t *testing.T) {
	m := New(Config{Nodes: 4, BlockSize: 32})
	arr := m.NewArray1D("a", 64, 1, false)
	if err := m.Run(func(w *Worker) {
		lo, hi := arr.MyRange(w)
		for i := lo; i < hi; i++ {
			w.WriteF64(arr.At(i, 0), float64(i))
		}
		w.Barrier()
		if w.ID == 0 {
			// Gather blocks homed on three other nodes, then read them:
			// every read must hit the prefetched copies.
			var addrs []memory.Addr
			for i := 16; i < 64; i++ {
				addrs = append(addrs, arr.At(i, 0))
			}
			before := w.Node.Stats.ReadFaults
			w.Gather(addrs)
			sum := 0.0
			for i := 16; i < 64; i++ {
				sum += w.ReadF64(arr.At(i, 0))
			}
			if want := float64((16 + 63) * 48 / 2); sum != want {
				t.Errorf("sum = %v, want %v", sum, want)
			}
			if w.Node.Stats.ReadFaults != before {
				t.Errorf("reads faulted %d times after gather", w.Node.Stats.ReadFaults-before)
			}
			if w.Node.Stats.RemoteWait == 0 {
				t.Error("gather wait not accounted")
			}
		}
		w.Barrier()
	}); err != nil {
		t.Fatal(err)
	}
}

func TestGatherAllLocalIsFree(t *testing.T) {
	m := New(Config{Nodes: 2, BlockSize: 32})
	arr := m.NewArray1D("a", 8, 1, false)
	if err := m.Run(func(w *Worker) {
		lo, hi := arr.MyRange(w)
		var addrs []memory.Addr
		for i := lo; i < hi; i++ {
			addrs = append(addrs, arr.At(i, 0))
		}
		msgs, lines := w.Node.Stats.MsgsSent, w.Node.Store.Lines()
		w.Gather(addrs) // everything local: no messages, no wait
		if w.Node.Stats.MsgsSent != msgs {
			t.Errorf("local gather sent messages")
		}
		// The "already cached" probe reads untouched home blocks as
		// ReadWrite without materializing them.
		if got := w.Node.Store.Lines(); got != lines {
			t.Errorf("gather probe grew the store from %d to %d lines", lines, got)
		}
		w.Barrier()
	}); err != nil {
		t.Fatal(err)
	}
}

func TestCombineArrays(t *testing.T) {
	m := New(Config{Nodes: 4, BlockSize: 32})
	if err := m.Run(func(w *Worker) {
		local := make([]float64, 8)
		for i := range local {
			local[i] = float64(w.ID)
		}
		lo, hi := w.Range(8)
		sum := w.CombineArrays(local, lo, hi)
		for k, v := range sum {
			if v != 0+1+2+3 {
				t.Errorf("worker %d sum[%d] = %v", w.ID, lo+k, v)
			}
		}
		// Back-to-back combines must not interfere.
		for i := range local {
			local[i] = 1
		}
		sum2 := w.CombineArrays(local, lo, hi)
		for _, v := range sum2 {
			if v != 4 {
				t.Errorf("second combine = %v", v)
			}
		}
	}); err != nil {
		t.Fatal(err)
	}
}

func TestAtomicAddNoLostUpdates(t *testing.T) {
	m := New(Config{Nodes: 8, BlockSize: 32})
	arr := m.NewArray1D("a", 4, 1, true)
	const perNode = 25
	if err := m.Run(func(w *Worker) {
		for i := 0; i < perNode; i++ {
			w.AtomicAddF64(arr.At(0, 0), 1)
		}
		w.Barrier()
	}); err != nil {
		t.Fatal(err)
	}
	if got := m.SnapshotF64(arr.At(0, 0)); got != 8*perNode {
		t.Fatalf("sum = %v, want %d (lost updates)", got, 8*perNode)
	}
}

// TestTimeAccountingBuckets: for a balanced program, the per-node bucket
// sum matches each node's final clock (no unaccounted virtual time).
func TestTimeAccountingBuckets(t *testing.T) {
	m := New(Config{Nodes: 4, BlockSize: 32, Protocol: ProtoPredictive})
	arr := m.NewArray1D("a", 32, 1, false)
	if err := m.Run(func(w *Worker) {
		lo, hi := arr.MyRange(w)
		for it := 0; it < 3; it++ {
			w.Phase(1, func() {
				for i := lo; i < hi; i++ {
					w.WriteF64(arr.At(i, 0), float64(it))
				}
				w.Compute(100 * sim.Microsecond)
			})
			w.Phase(2, func() {
				for i := 0; i < arr.N; i++ {
					w.ReadF64(arr.At(i, 0))
				}
			})
		}
	}); err != nil {
		t.Fatal(err)
	}
	for _, n := range m.Nodes {
		total := n.Stats.Total()
		end := m.Elapsed()
		// Buckets must account for at least 95% of the node's lifetime
		// (the residue is fault-retry tag checks charged nowhere).
		if total < end*90/100 || total > end {
			t.Fatalf("node %d accounted %v of %v", n.ID, total, end)
		}
	}
}

func TestRangeCoversExactly(t *testing.T) {
	m := New(Config{Nodes: 3, BlockSize: 32})
	seen := make([]int, 10)
	if err := m.Run(func(w *Worker) {
		lo, hi := w.Range(10)
		for i := lo; i < hi; i++ {
			seen[i]++
		}
		w.Barrier()
	}); err != nil {
		t.Fatal(err)
	}
	for i, c := range seen {
		if c != 1 {
			t.Fatalf("item %d covered %d times", i, c)
		}
	}
}

func TestMachineRunTwiceFails(t *testing.T) {
	m := New(Config{Nodes: 1, BlockSize: 32})
	if err := m.Run(func(w *Worker) {}); err != nil {
		t.Fatal(err)
	}
	if err := m.Run(func(w *Worker) {}); err == nil {
		t.Fatal("second Run must fail")
	}
}

func TestUnknownProtocolPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(Config{Nodes: 1, BlockSize: 32, Protocol: "bogus"})
}
