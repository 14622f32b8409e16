package check

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"presto/internal/memory"
	"presto/internal/rt"
	"presto/internal/sim"
	"presto/internal/tempest"
)

// Explore is an explicit-state exploration of the Stache handlers the
// simulator ships, in the role Teapot's model checker played for the
// paper's protocols (paper reference [3]). Node 0 homes one block, and
// each of Caches other nodes accesses it Writes times, reading it twice
// through one read cursor (tempest.Cursor) before each write. Under
// sim.Kernel.Choose any pending delivery, or any compute processor's next
// access, may go next: the network has no order at all. Breadth-first
// search over choice sequences, each replayed on a fresh rt.Machine,
// reaches every state, deduplicated by a hash that ignores time.
type Explore struct {
	Caches, Writes int
}

// Exploration reports an exhaustive search. Violation is empty when every
// reachable state passed; otherwise Trace is the choice sequence that
// reaches the first violation found, shortest by construction.
type Exploration struct {
	States    int // distinct states reached
	Quiescent int // states with no message in flight, audited by Machine
	Runs      int // machines replayed
	Violation string
	Trace     []string
}

// Run explores every state reachable from the initial machine.
func (x Explore) Run() Exploration {
	var res Exploration
	seen := map[uint64]bool{}
	for queue := [][]int{nil}; len(queue) > 0; queue = queue[1:] {
		prefix := queue[0]
		r := x.replay(prefix)
		res.Runs++
		if r.violation != "" {
			res.Violation, res.Trace = r.violation, r.trace
			return res
		}
		if seen[r.hash] {
			continue
		}
		seen[r.hash] = true
		res.States++
		if r.quiescent {
			res.Quiescent++
		}
		for i := 0; i < r.choices; i++ {
			queue = append(queue, append(prefix[:len(prefix):len(prefix)], i))
		}
	}
	return res
}

// replayed is the state one replay stopped in.
type replayed struct {
	hash      uint64
	choices   int // pending choices; 0 when the run ended
	quiescent bool
	violation string
	trace     []string
}

// replay runs a fresh machine along prefix and stops at the next choice.
func (x Explore) replay(prefix []int) (r replayed) {
	m := rt.New(rt.Config{Nodes: x.Caches + 1, BlockSize: 16, MaxEvents: 1 << 12})
	a := m.AS.NewRegion("explored", 16, func(int64) int { return 0 }).Base()
	b := m.AS.BlockOf(a)

	// The program's own state: each node's next access, one past the Store
	// epoch its cursor was filled at (it holds while the epoch stands; 0
	// for never), and the value the last write stored, which every read
	// must return.
	step := make([]int, m.Cfg.Nodes)
	filled := make([]uint64, m.Cfg.Nodes)
	var last float64
	prog := func(w *rt.Worker) {
		var c tempest.Cursor
		for k := 0; w.ID > 0 && k < 3*x.Writes; k++ {
			if k > 0 {
				w.P.Sleep(1) // the next access issues whenever the explorer picks
			}
			step[w.ID] = k + 1
			if k%3 == 2 {
				v := float64(10*w.ID + k)
				w.WriteF64(a, v)
				last = v
			} else if v := w.Node.ReadF64At(w.P, &c, a); v != last {
				panic(fmt.Sprintf("node %d read %v, but the last write stored %v", w.ID, v, last))
			} else {
				filled[w.ID] = w.Node.Store.Epoch() + 1
			}
		}
	}
	// state hashes where the run stands and audits it if no message is in
	// flight.
	state := func(cs []sim.Choice) {
		r.choices, r.quiescent = len(cs), true
		for _, c := range cs {
			r.quiescent = r.quiescent && c.Msg == nil
		}
		r.hash = stateKey(m, b, cs, step, filled, last)
		if !r.quiescent {
			return
		}
		if vs := Machine(m); len(vs) > 0 {
			r.violation = vs[0].String()
		}
	}

	stopped := false
	m.Kernel.Choose(func(cs []sim.Choice) int {
		if len(r.trace) == len(prefix) {
			stopped = true
			state(cs)
			return -1
		}
		i := prefix[len(r.trace)]
		r.trace = append(r.trace, describe(cs[i]))
		return i
	})
	err := run(m, prog)
	var dl *sim.DeadlockError
	switch {
	case stopped && (err == nil || errors.As(err, &dl)):
	case err != nil:
		r.violation = err.Error()
	default: // every program finished and the network drained
		state(nil)
	}
	return r
}

// run runs the machine, turning a Proc's panic into an error.
func run(m *rt.Machine, prog rt.Program) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("panic: %v", p)
		}
	}()
	return m.Run(prog)
}

// stateKey hashes a state, ignoring time: the protocol state StateHash
// covers, each node's tag, bytes, fault wait and first-use marks for the
// block, the program's progress and cursor, and the multiset of pending
// choices.
func stateKey(m *rt.Machine, b memory.Block, cs []sim.Choice, step []int, filled []uint64, last float64) uint64 {
	h := newHash()
	h.protocol(m)
	for _, n := range m.Nodes {
		tag, data := n.Store.Peek(b)
		h.mix(uint64(tag))
		for _, v := range data {
			h.mix(uint64(v))
		}
		wb, waiting := n.FaultWaitBlock()
		use, deferred, fresh := n.UseMarks(b)
		h.mix(bits(waiting, waiting && wb == b, use, deferred, fresh, filled[n.ID] == n.Store.Epoch()+1))
		h.mix(uint64(step[n.ID]))
	}
	h.mix(math.Float64bits(last))
	keys := make([]uint64, len(cs))
	for i, c := range cs {
		k := newHash()
		for _, ch := range fmt.Sprintf("%d>%d %#v", c.From.ID(), c.To.ID(), c.Msg) {
			k.mix(uint64(ch))
		}
		keys[i] = uint64(k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	for _, k := range keys {
		h.mix(k)
	}
	return uint64(h)
}

// describe renders a choice for a trace.
func describe(c sim.Choice) string {
	if c.Msg == nil {
		return "wake " + c.To.Name()
	}
	what := fmt.Sprintf("%T", c.Msg)
	if m, ok := c.Msg.(tempest.Msg); ok {
		what = tempest.MsgString(m)
	}
	return fmt.Sprintf("%s -> %s %s", c.From.Name(), c.To.Name(), what)
}
