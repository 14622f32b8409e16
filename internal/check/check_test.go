package check

import (
	"math/rand"
	"strings"
	"testing"

	"presto/internal/memory"
	"presto/internal/rt"
)

// runRandom executes a random phase-structured workload and returns the
// machine for auditing.
func runRandom(t *testing.T, proto rt.ProtocolKind, seed int64, bs int) *rt.Machine {
	t.Helper()
	m := rt.New(rt.Config{Nodes: 6, BlockSize: bs, Protocol: proto})
	arr := m.NewArray1D("x", 96, 1, false)
	err := m.Run(func(w *rt.Worker) {
		lo, hi := arr.MyRange(w)
		rng := rand.New(rand.NewSource(seed + int64(w.ID)))
		for it := 0; it < 4; it++ {
			w.Phase(1, func() {
				for i := lo; i < hi; i++ {
					w.WriteF64(arr.At(i, 0), float64(it*1000+i))
				}
			})
			w.Phase(2, func() {
				for k := 0; k < 40; k++ {
					w.ReadF64(arr.At(rng.Intn(arr.N), 0))
				}
			})
			// Occasional migratory writes outside the owner's range.
			w.Phase(3, func() {
				if w.ID == it%6 {
					for k := 0; k < 8; k++ {
						i := (lo + 17*k + it) % arr.N
						w.AtomicAddF64(arr.At(i, 0), 1)
					}
				}
			})
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// linesHeld sums the lines every node's Store has materialized.
func linesHeld(m *rt.Machine) (n int) {
	for _, node := range m.Nodes {
		n += node.Store.Lines()
	}
	return n
}

func TestInvariantsHoldStache(t *testing.T) {
	for _, bs := range []int{32, 128} {
		m := runRandom(t, rt.ProtoStache, 11, bs)
		before := linesHeld(m)
		if vs := Machine(m); len(vs) > 0 {
			t.Fatalf("bs=%d:\n%s", bs, Report(vs))
		}
		// The audit reads through Store.Peek: it must not change what it
		// inspects.
		if after := linesHeld(m); after != before {
			t.Fatalf("bs=%d: the audit grew the stores from %d to %d lines", bs, before, after)
		}
	}
}

func TestInvariantsHoldPredictive(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		m := runRandom(t, rt.ProtoPredictive, seed, 32)
		if vs := Machine(m); len(vs) > 0 {
			t.Fatalf("seed %d:\n%s", seed, Report(vs))
		}
	}
}

func TestCheckerDetectsCorruption(t *testing.T) {
	m := runRandom(t, rt.ProtoStache, 5, 32)
	// Corrupt: force a non-sharer's tag to ReadOnly behind the
	// directory's back.
	var victim memory.Block
	found := false
	for _, home := range m.Nodes {
		if found {
			break
		}
		reg := m.AS.Regions()[0]
		for idx := int64(0); idx < reg.NumBlocks(); idx++ {
			b := m.AS.BlockOf(reg.Addr(idx * int64(m.Cfg.BlockSize)))
			e := home.Dir.Lookup(b)
			if e == nil {
				continue
			}
			// Pick any entry; corrupt a node that should be Invalid.
			for _, n := range m.Nodes {
				if n.ID == home.ID || e.Sharers.Has(n.ID) || e.Owner == n.ID {
					continue
				}
				l := n.Store.Ensure(b)
				l.Tag = memory.ReadOnly
				victim = b
				found = true
				break
			}
			if found {
				break
			}
		}
	}
	if !found {
		t.Skip("no directory entries to corrupt")
	}
	vs := Machine(m)
	if len(vs) == 0 {
		t.Fatalf("checker missed corruption of block %#x", uint64(victim))
	}
}

func TestUpdateProtocolExemptFromValueCheck(t *testing.T) {
	// Under the write-update protocol, stale sharers are by design; the
	// checker must not flag them as divergence.
	m := rt.New(rt.Config{Nodes: 2, BlockSize: 32, Protocol: rt.ProtoUpdate})
	arr := m.NewArray1D("a", 2, 1, true)
	err := m.Run(func(w *rt.Worker) {
		if w.ID == 1 {
			w.ReadF64(arr.At(0, 0)) // become a sharer
		}
		w.Barrier()
		if w.ID == 0 {
			w.WriteF64(arr.At(0, 0), 42) // local write; no push
		}
		w.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range Machine(m) {
		t.Fatalf("update run flagged: %s", v)
	}
}

func TestViolationCarriesTraceEvents(t *testing.T) {
	// With a trace ring attached, a violation must carry the tail of the
	// protocol event log for the offending block's home and any
	// implicated remote nodes.
	m := rt.New(rt.Config{Nodes: 2, BlockSize: 32, Protocol: rt.ProtoStache, Trace: 128})
	arr := m.NewArray1D("a", 8, 1, false)
	err := m.Run(func(w *rt.Worker) {
		if w.ID == 1 {
			w.ReadF64(arr.At(0, 0)) // remote read: traffic involving node 0 and 1
		}
		w.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt node 1's copy tag behind the directory's back.
	b := m.AS.BlockOf(arr.At(0, 0))
	home := m.AS.HomeOf(b)
	e := m.Nodes[home].Dir.Lookup(b)
	if e == nil {
		t.Fatal("no directory entry for the read block")
	}
	l := m.Nodes[1].Store.Ensure(b)
	l.Tag = memory.ReadWrite // sharer claiming writability
	vs := Machine(m)
	if len(vs) == 0 {
		t.Fatal("checker missed the corruption")
	}
	found := false
	for _, v := range vs {
		if len(v.Events) == 0 {
			continue
		}
		found = true
		for _, ev := range v.Events {
			if ev.Node != home && ev.Node != 1 {
				t.Fatalf("event for unimplicated node %d: %v", ev.Node, ev)
			}
		}
		s := v.String()
		if !strings.Contains(s, "trace events") {
			t.Fatalf("violation string lacks trace context:\n%s", s)
		}
	}
	if !found {
		t.Fatal("no violation carried trace events despite an attached ring")
	}
}

func TestViolationNoRingNoEvents(t *testing.T) {
	m := runRandom(t, rt.ProtoStache, 5, 32)
	if m.Ring != nil {
		t.Fatal("runRandom unexpectedly attached a ring")
	}
	// Corrupting without a ring must still produce violations, just
	// without event context (and without panicking).
	reg := m.AS.Regions()[0]
	b := m.AS.BlockOf(reg.Addr(0))
	l := m.Nodes[(m.AS.HomeOf(b)+1)%len(m.Nodes)].Store.Ensure(b)
	l.Tag = memory.ReadOnly
	for _, v := range Machine(m) {
		if len(v.Events) != 0 {
			t.Fatalf("events attached without a ring: %+v", v)
		}
	}
}
