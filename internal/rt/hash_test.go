package rt

import (
	"bytes"
	"fmt"
	"testing"

	"presto/internal/memory"
	"presto/internal/tempest"
)

// hashMemoryRef is HashMemory's definition: FNV-1a over every byte of
// every block of every region, each block read through SnapshotBlock.
func hashMemoryRef(m *Machine) uint64 {
	h := uint64(fnvOffset)
	bs := int64(m.Cfg.BlockSize)
	for _, r := range m.AS.Regions() {
		for idx := int64(0); idx < r.NumBlocks(); idx++ {
			for _, c := range m.SnapshotBlock(r.Addr(idx * bs)) {
				h = (h ^ uint64(c)) * fnvPrime
			}
		}
	}
	return h
}

// hashMachine builds a 4-node machine whose memory holds every shape
// HashMemory's shortcuts must get right:
//   - "odd": 71 blocks and a ragged last block, written sparsely, some
//     words zeroed again, and one block per node left exclusive at a
//     remote writer, so its home copy is stale;
//   - "arena": a 2 MB arena with a few objects at each segment's start;
//   - "tail": untouched, 69 blocks and 8 bytes, so its last page is short;
//   - "remote": untouched by the program and all homed on node 0; it is
//     returned so a test can hand a block of it to another node.
func hashMachine(t *testing.T, proto ProtocolKind, bs int) (m *Machine, remote *memory.Region) {
	t.Helper()
	const nodes = 4
	m = New(Config{Nodes: nodes, BlockSize: bs, Protocol: proto})
	odd := m.NewArray1D("odd", (70*bs+24)/8, 1, false)
	arena := m.NewArena("arena", 2<<20)
	m.AS.NewRegion("tail", 69*int64(bs)+8, func(i int64) int { return int(i % nodes) })
	remote = m.AS.NewRegion("remote", 3*memory.PageBlocks*int64(bs), func(int64) int { return 0 })
	err := m.Run(func(w *Worker) {
		lo, hi := odd.MyRange(w)
		for i := lo; i < hi; i += 7 {
			w.WriteF64(odd.At(i, 0), float64(i+1))
		}
		for k := 0; k < 3; k++ {
			obj := arena.Alloc(w.ID, 24, k == 1)
			for f := int64(0); f < 3; f++ {
				w.WriteF64(obj.Add(8*f), float64(100*w.ID+10*k)+float64(f))
			}
		}
		w.Barrier()
		w.WriteF64(odd.At(lo, 0), 0)
		nlo, _ := odd.MyRange(&Worker{ID: (w.ID + 1) % nodes})
		w.WriteF64(odd.At(nlo+1, 0), float64(1000+w.ID))
		w.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
	return m, remote
}

// staleExcl counts blocks whose directory names a remote exclusive owner
// holding bytes other than the home's.
func staleExcl(m *Machine) int {
	stale := 0
	for _, home := range m.Nodes {
		home.Dir.ForEach(func(b memory.Block, e *tempest.DirEntry) {
			if e.State != tempest.DirRemoteExcl {
				return
			}
			_, own := m.Nodes[e.Owner].Store.Peek(b)
			if _, hd := home.Store.Peek(b); !bytes.Equal(hd, own) {
				stale++
			}
		})
	}
	return stale
}

func storeLines(m *Machine) (n int) {
	for _, nd := range m.Nodes {
		n += nd.Store.Lines()
	}
	return n
}

// TestHashMemoryMatchesByteLoop holds HashMemory to the byte-wise fold
// over block sizes 16 to 4096, ragged regions, re-zeroed words, stale
// home copies, a sparse arena, and a page only a remote owner holds.
func TestHashMemoryMatchesByteLoop(t *testing.T) {
	if fnvPow(8) != fnvPrime8 {
		t.Fatalf("fnvPrime8 = %#x, want fnvPow(8) = %#x", uint64(fnvPrime8), fnvPow(8))
	}
	for _, proto := range []ProtocolKind{ProtoStache, ProtoPredictive} {
		for _, bs := range []int{16, 32, 1024, 4096} {
			t.Run(fmt.Sprintf("%s/bs%d", proto, bs), func(t *testing.T) {
				m, remote := hashMachine(t, proto, bs)
				if proto == ProtoStache && staleExcl(m) == 0 {
					t.Fatal("no remote-exclusive block with a stale home copy")
				}
				lines := storeLines(m)
				got, want := m.HashMemory(), hashMemoryRef(m)
				if got != want {
					t.Fatalf("HashMemory = %016x, byte loop %016x", got, want)
				}
				if n := storeLines(m); n != lines {
					t.Fatalf("HashMemory materialized %d lines", n-lines)
				}

				// Hand a block of page 1 of "remote" to node 1 as its
				// exclusive owner: node 0, its home, holds no line in that
				// page, so only node 1's Store shows it was touched.
				b := remote.BlockAt(memory.PageBlocks + 5)
				data := make([]byte, bs)
				data[bs-1] = 0x5a
				m.Nodes[1].Store.Install(b, data, memory.ReadWrite)
				e := m.Nodes[0].Dir.Entry(b)
				e.State, e.Owner = tempest.DirRemoteExcl, 1
				if m.Nodes[0].Store.HoldsPage(b) {
					t.Fatal("home holds the remote owner's page")
				}
				got2, want2 := m.HashMemory(), hashMemoryRef(m)
				if want2 == want {
					t.Fatal("the remote owner's block does not change the byte loop's hash")
				}
				if got2 != want2 {
					t.Fatalf("with a remote-owned page: HashMemory = %016x, byte loop %016x", got2, want2)
				}
			})
		}
	}
}

// TestHashMemoryZeroAlloc: hashing allocates nothing, on an untouched
// machine and on a touched one.
func TestHashMemoryZeroAlloc(t *testing.T) {
	untouched := New(Config{Nodes: 4, BlockSize: 32})
	untouched.NewArray1D("big", 1<<16, 1, false)
	if err := untouched.Run(func(*Worker) {}); err != nil {
		t.Fatal(err)
	}
	touched, _ := hashMachine(t, ProtoStache, 32)
	for _, c := range []struct {
		name string
		m    *Machine
	}{{"untouched", untouched}, {"touched", touched}} {
		if a := testing.AllocsPerRun(10, func() { c.m.HashMemory() }); a != 0 {
			t.Errorf("%s: HashMemory allocates %.1f objects per call, want 0", c.name, a)
		}
	}
}
