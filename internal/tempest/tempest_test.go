package tempest

import (
	"strings"
	"testing"
	"testing/quick"

	"presto/internal/memory"
	"presto/internal/network"
	"presto/internal/sim"
)

func TestBitsetBasics(t *testing.T) {
	var b Bitset
	if !b.Empty() {
		t.Fatal("zero bitset not empty")
	}
	b.Add(0)
	b.Add(5)
	b.Add(63)
	if b.Count() != 3 || !b.Has(5) || b.Has(4) {
		t.Fatalf("bitset = %v", b)
	}
	b.Remove(5)
	if b.Has(5) || b.Count() != 2 {
		t.Fatalf("after remove: %v", b)
	}
	var seen []int
	b.ForEach(func(n int) { seen = append(seen, n) })
	if len(seen) != 2 || seen[0] != 0 || seen[1] != 63 {
		t.Fatalf("foreach = %v", seen)
	}
	if b.String() != "{0,63}" {
		t.Fatalf("string = %s", b)
	}
	b.Clear()
	if !b.Empty() {
		t.Fatal("clear failed")
	}
}

// Property: Add/Remove behave like a set over [0,64).
func TestBitsetSetSemantics(t *testing.T) {
	f := func(ops []uint8) bool {
		var b Bitset
		ref := map[int]bool{}
		for _, op := range ops {
			n := int(op % 64)
			if op&0x80 != 0 {
				b.Remove(n)
				delete(ref, n)
			} else {
				b.Add(n)
				ref[n] = true
			}
		}
		if b.Count() != len(ref) {
			return false
		}
		for n := range ref {
			if !b.Has(n) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func dirAS() *memory.AddressSpace {
	as := memory.NewAddressSpace(2, 32)
	as.NewRegion("r", 1<<16, func(b int64) int { return int(b % 2) })
	return as
}

func TestDirectoryMaterialization(t *testing.T) {
	for name, d := range map[string]*Directory{
		"dense":  NewDirectory(dirAS()),
		"mapref": NewDirectoryRef(dirAS()),
	} {
		t.Run(name, func(t *testing.T) {
			b := memory.Block(0x40)
			if d.Lookup(b) != nil {
				t.Fatal("lookup created an entry")
			}
			e := d.Entry(b)
			if e.State != DirHome || e.Owner != -1 {
				t.Fatalf("fresh entry = %+v", e)
			}
			if d.Entry(b) != e {
				t.Fatal("entry not stable")
			}
			if d.Len() != 1 {
				t.Fatalf("len = %d", d.Len())
			}
			count := 0
			d.ForEach(func(memory.Block, *DirEntry) { count++ })
			if count != 1 {
				t.Fatalf("foreach visited %d", count)
			}
		})
	}
}

func TestDirectoryForEachOrdered(t *testing.T) {
	for name, d := range map[string]*Directory{
		"dense":  NewDirectory(dirAS()),
		"mapref": NewDirectoryRef(dirAS()),
	} {
		t.Run(name, func(t *testing.T) {
			for _, off := range []int64{0x400, 0x40, 0x2000, 0x0, 0x80} {
				d.Entry(memory.Block(off))
			}
			var got []memory.Block
			d.ForEach(func(b memory.Block, _ *DirEntry) { got = append(got, b) })
			want := []memory.Block{0x0, 0x40, 0x80, 0x400, 0x2000}
			if len(got) != len(want) {
				t.Fatalf("visited %d entries, want %d", len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("order[%d] = %#x, want %#x", i, uint64(got[i]), uint64(want[i]))
				}
			}
		})
	}
}

func TestDirectoryPendingQueue(t *testing.T) {
	d := NewDirectory(dirAS())
	e := d.Entry(memory.Block(0x40))
	if e.PendingLen() != 0 {
		t.Fatal("fresh entry has pending requests")
	}
	if _, ok := d.PopPending(e); ok {
		t.Fatal("pop on empty queue succeeded")
	}
	// Push enough to force the ring to grow past the slab buffer size.
	const reqs = 20
	for i := 0; i < reqs; i++ {
		d.PushPending(e, PendReq{Req: i, Write: i%2 == 0})
	}
	if e.PendingLen() != reqs {
		t.Fatalf("PendingLen = %d, want %d", e.PendingLen(), reqs)
	}
	i := 0
	e.ForEachPending(func(r PendReq) {
		if r.Req != i {
			t.Fatalf("ForEachPending[%d].Req = %d", i, r.Req)
		}
		i++
	})
	for i := 0; i < reqs; i++ {
		r, ok := d.PopPending(e)
		if !ok || r.Req != i || r.Write != (i%2 == 0) {
			t.Fatalf("pop %d = %+v ok=%v", i, r, ok)
		}
	}
	if e.PendingLen() != 0 {
		t.Fatal("queue not drained")
	}
	// Drained buffers recycle through the slab: interleaved push/pop on
	// two entries must keep FIFO order per entry.
	e2 := d.Entry(memory.Block(0x80))
	d.PushPending(e, PendReq{Req: 100})
	d.PushPending(e2, PendReq{Req: 200})
	d.PushPending(e, PendReq{Req: 101})
	if r, _ := d.PopPending(e); r.Req != 100 {
		t.Fatalf("interleaved pop = %+v", r)
	}
	if r, _ := d.PopPending(e2); r.Req != 200 {
		t.Fatal("cross-entry queue corruption")
	}
	if r, _ := d.PopPending(e); r.Req != 101 {
		t.Fatal("FIFO order lost after slab recycling")
	}
}

func TestDirStateStrings(t *testing.T) {
	for s, want := range map[DirState]string{
		DirHome: "Home", DirRemoteExcl: "RemoteExcl",
		DirAwaitAcks: "AwaitAcks", DirAwaitWB: "AwaitWB",
	} {
		if s.String() != want {
			t.Fatalf("%d = %q, want %q", s, s.String(), want)
		}
	}
}

func TestMsgPayloadSizes(t *testing.T) {
	data := make([]byte, 32)
	cases := []struct {
		m    Msg
		want int
	}{
		{MsgGetRO{}, 16},
		{MsgGetRW{}, 16},
		{MsgDataRO{Data: data}, 40},
		{MsgDataRW{Data: data}, 40},
		{MsgInval{}, 8},
		{MsgInvalAck{}, 16},
		{MsgRecallRO{}, 8},
		{MsgRecallRW{}, 8},
		{MsgWriteBack{Data: data}, 48},
		{MsgBulk{Entries: []BulkEntry{{Data: data}, {Data: data}}}, 80},
		{MsgWake{}, 0},
		{MsgPresendGo{}, 0},
		{MsgPresendDone{}, 0},
		{MsgUpdate{Data: data}, 40},
		{MsgSignal{}, 16},
		{MsgUseDone{}, 8},
	}
	for _, c := range cases {
		if got := c.m.PayloadBytes(); got != c.want {
			t.Errorf("%T payload = %d, want %d", c.m, got, c.want)
		}
	}
}

func TestMsgString(t *testing.T) {
	s := MsgString(MsgGetRW{Block: 0x20, Req: 3})
	if !strings.Contains(s, "GetRW") || !strings.Contains(s, "req=3") {
		t.Fatalf("MsgString = %q", s)
	}
	if !strings.Contains(MsgString(MsgBulk{Entries: make([]BulkEntry, 4)}), "4 blocks") {
		t.Fatal("bulk string")
	}
}

// nullProto satisfies Protocol for substrate-level tests: faults resolve
// locally by installing a writable line (like a trivially coherent
// single-copy protocol).
type nullProto struct {
	handled []any
	faults  int
}

func (p *nullProto) Name() string { return "null" }
func (p *nullProto) Init(n *Node) {}
func (p *nullProto) OnFault(n *Node, b memory.Block, w bool) bool {
	p.faults++
	n.Store.Ensure(b).Tag = memory.ReadWrite
	return true
}
func (p *nullProto) Handle(n *Node, d sim.Delivery) { p.handled = append(p.handled, d.Msg) }

func twoNodes(t *testing.T) (*sim.Kernel, []*Node, *nullProto) {
	t.Helper()
	k := sim.NewKernel()
	as := memory.NewAddressSpace(2, 32)
	as.NewRegion("r", 1024, func(b int64) int { return int(b % 2) })
	proto := &nullProto{}
	nodes := []*Node{NewNode(0, as, network.CM5(), proto), NewNode(1, as, network.CM5(), proto)}
	for _, n := range nodes {
		n.Peers = nodes
	}
	for _, n := range nodes {
		n := n
		n.ProtoProc = k.SpawnHandler("proto", n.HandleDelivery)
	}
	return k, nodes, proto
}

func TestPostAccountsMessages(t *testing.T) {
	k, nodes, proto := twoNodes(t)
	nodes[0].Compute = k.Spawn("c0", func(p *sim.Proc) {
		nodes[0].Post(p, nodes[1], MsgInval{Block: 0})
		nodes[0].Post(p, nodes[0], MsgWake{}) // local: not counted as a message
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if nodes[0].Stats.MsgsSent != 1 {
		t.Fatalf("msgs = %d, want 1 (local excluded)", nodes[0].Stats.MsgsSent)
	}
	wantBytes := int64(8 + 16) // payload + header
	if nodes[0].Stats.BytesSent != wantBytes {
		t.Fatalf("bytes = %d, want %d", nodes[0].Stats.BytesSent, wantBytes)
	}
	if len(proto.handled) != 2 {
		t.Fatalf("handled = %d", len(proto.handled))
	}
}

func TestLocallyResolvedFaultAccounting(t *testing.T) {
	// nullProto resolves every fault locally; the fault path must account
	// detection cost and counters without blocking.
	k, nodes, proto := twoNodes(t)
	var elapsed sim.Time
	nodes[0].Compute = k.Spawn("c0", func(p *sim.Proc) {
		a := memory.Addr(32) // block 1 -> home node 1, invalid here
		nodes[0].ReadF64(p, a)
		elapsed = p.Now()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if proto.faults != 1 {
		t.Fatalf("faults = %d, want 1", proto.faults)
	}
	if elapsed == 0 {
		t.Fatal("no fault-detection time accounted")
	}
	if nodes[0].Stats.ReadFaults != 1 || nodes[0].Stats.RemoteWait == 0 {
		t.Fatalf("stats = %+v", nodes[0].Stats)
	}
}

func TestPendingUseLifecycle(t *testing.T) {
	k, nodes, _ := twoNodes(t)
	n := nodes[0]
	b := memory.Block(0) // home at node 0
	n.Compute = k.Spawn("c0", func(p *sim.Proc) {
		n.MarkPendingUse(b)
		if !n.PendingUse(b) {
			t.Error("mark failed")
		}
		if !n.DeferPostUse(b) {
			t.Error("defer on pending use failed")
		}
		// A successful access consumes the pending use and notifies the
		// protocol processor (deferred flag set).
		n.ReadF64(p, memory.Addr(0))
		if n.PendingUse(b) {
			t.Error("use did not clear pending mark")
		}
		if n.DeferPostUse(b) {
			t.Error("defer after use should report no pending use")
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	// The deferred flag must have produced a MsgUseDone to the protocol
	// processor.
	// (nullProto records everything it handles.)
	found := false
	for _, m := range nodes[0].Proto.(*nullProto).handled {
		if _, ok := m.(MsgUseDone); ok {
			found = true
		}
	}
	if !found {
		t.Fatal("no MsgUseDone delivered")
	}
}

func TestRecvComputeStashesSignals(t *testing.T) {
	k, nodes, _ := twoNodes(t)
	n := nodes[0]
	n.Compute = k.Spawn("c0", func(p *sim.Proc) {
		// Wait for a wake; a signal arrives first and must be stashed.
		d := n.RecvCompute(p, func(m any) bool {
			_, ok := m.(MsgWake)
			return ok
		})
		if _, ok := d.Msg.(MsgWake); !ok {
			t.Errorf("got %T", d.Msg)
		}
		sig, ok := n.PopSignal()
		if !ok {
			t.Error("signal not stashed")
		}
		if s := sig.Msg.(MsgSignal); s.Tag != 7 {
			t.Errorf("tag = %d", s.Tag)
		}
	})
	k.Spawn("driver", func(p *sim.Proc) {
		p.Send(n.Compute, MsgSignal{Tag: 7, From: 1}, sim.Microsecond)
		p.Send(n.Compute, MsgWake{}, 2*sim.Microsecond)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestInstallCostScalesWithSize(t *testing.T) {
	_, nodes, _ := twoNodes(t)
	small := nodes[0].InstallCost(32)
	big := nodes[0].InstallCost(1024)
	if big <= small || small <= 0 {
		t.Fatalf("install costs: 32B=%v 1024B=%v", small, big)
	}
}

func TestStatsTotal(t *testing.T) {
	s := Stats{Compute: 1, RemoteWait: 2, Presend: 3, Sync: 4}
	if s.Total() != 10 {
		t.Fatalf("total = %v", s.Total())
	}
}
