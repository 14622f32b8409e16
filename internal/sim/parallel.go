package sim

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// Conservative parallel execution.
//
// RunParallel partitions Procs into lanes — groups that may share mutable
// simulated state and therefore must execute serially relative to each
// other (for the DSM machine: the compute and protocol Procs of one node).
// Cross-lane interaction happens only through timestamped messages whose
// delay is bounded below by the configured lookahead L (the interconnect's
// minimum cross-node latency), so an event at virtual time t can only
// schedule work on another lane at t+L or later.
//
// Each round the engine takes the earliest pending event time T and opens
// the window [T, T+L): every queued event inside the window is handed to
// its lane, and the active lanes execute concurrently on a worker pool.
// Nothing a lane does inside the window can affect another lane inside the
// same window, so each lane's mini-kernel processes exactly the events the
// serial engine would have given it, in the same relative order.
//
// Side effects are not applied during lane execution. Posted events are
// buffered per activation, OnCommit effects (trace records) are deferred,
// and barrier arrivals are logged. After all lanes join, a single-threaded
// commit merges the window's events in global (timestamp, sequence) order,
// assigns the real sequence numbers to buffered posts in exactly the order
// the serial engine would have (posts of an earlier activation precede
// posts of a later one; posts within an activation keep program order),
// applies barrier arrivals, runs deferred effects, and maintains the
// kernel's dispatch statistics.
//
// The commit needs no replay heap: each lane executed its window events in
// nondecreasing (timestamp, order-key) order, so its step log is already a
// sorted run and the global order is the k-way merge of the active lanes'
// runs. A merge head always has its real sequence number — established
// events were sequenced before the window opened, and a fresh post only
// reaches the head after its posting activation (an earlier step of the
// same lane) committed and sequenced it. Windows that activated a single
// lane skip the merge and walk that lane's run directly. The commit panics
// if any buffered event lands inside the window on a foreign lane (a
// lookahead violation) or if a lane's run is not exhausted when the merge
// ends (an ordering divergence). The result — final state, sequence
// numbers, statistics, traces — is byte-identical to the serial engine's.

// ParallelConfig configures Kernel.RunParallel.
type ParallelConfig struct {
	// Workers bounds how many lanes execute concurrently. Values <= 1
	// keep lane execution on the caller's goroutine — the full commit
	// machinery still runs, which makes Workers=1 useful for determinism
	// testing on small hosts.
	Workers int

	// Lookahead is the conservative window width: a strict lower bound on
	// the virtual-time delay of any cross-lane interaction (message or
	// barrier release). Must be positive unless PairLookahead refines it.
	// See network.Params.MinLatency.
	Lookahead Time

	// PairLookahead, when non-nil, replaces the scalar Lookahead with a
	// per-lane-pair matrix: an event executing on lane i at time t cannot
	// schedule work on lane j (i != j) before t + PairLookahead(i, j).
	// Lane j's causal horizon is then T + rowMin[j], rowMin[j] = min over
	// i of PairLookahead(i, j) — its earliest possible foreign influence.
	// The executed window is [T, T + min over j of rowMin[j]): committing
	// ragged per-lane windows would interleave OnCommit effects out of
	// global (timestamp, sequence) order, so the widest *uniform* window
	// the matrix allows is used. That is exactly where the matrix pays
	// off: lanes partitioned so that every pair crosses a slow link (e.g.
	// cluster nodes over a top-level network) get windows as wide as that
	// slow link, not the machine-wide minimum that intra-node traffic
	// would impose. The per-lane horizons are still enforced
	// individually: the commit panics on any cross-lane post inside the
	// *target* lane's horizon, a stricter detector than the executed
	// window. Every entry must be positive; the diagonal is never
	// consulted. A barrier releasing lanes must also respect the matrix
	// (fold the barrier cost into each entry: network.Params.PairMinLatency
	// does). Ignored when Lanes <= 1.
	PairLookahead func(i, j int) Time

	// Lanes is the number of lanes; LaneOf maps each Proc to a lane in
	// [0, Lanes). Procs that share mutable simulated state must map to
	// the same lane. When Lanes is 0, every Proc gets its own lane
	// (LaneOf is ignored), which is valid only for Procs that interact
	// purely through messages delayed by at least Lookahead.
	Lanes  int
	LaneOf func(p *Proc) int
}

// laneStep records one event processed by a lane inside a window: the
// event itself, everything the activation posted (in program order, with
// provisional lane-local keys), deferred OnCommit effects, an optional
// barrier arrival, and whether the activation panicked.
type laneStep struct {
	ev        *event
	posts     []*event
	effects   []func()
	edges     []Edge // flight-recorder edges, flushed to the ring at commit
	barrier   *Barrier
	barrierAt Time
	panicked  any
	skipped   bool // event targeted an already-finished Proc
}

// lane executes a group of Procs serially within a window. Its fields are
// touched by the lane's worker goroutine during execution and by the
// engine goroutine during extraction/commit — never both at once; the
// round's fork/join provides the happens-before edges.
type lane struct {
	id        int
	pool      eventPool
	pending   []*event // sorted window events; consumed from phead
	phead     int
	steps     []laneStep
	cur       *laneStep
	next      int    // commit-merge cursor into steps
	postKey   uint64 // provisional order key for freshly posted events
	windowEnd Time
	active    bool
	stopped   bool     // a step panicked; stop executing this window
	inWin     int      // fresh posts that landed inside this window
	wex       *winExec // non-nil while this window runs serialized (baton crosses lanes)
	claim     uint32   // CAS-claimed by the worker that executes this window (pool mode)
}

// laneBefore orders a lane's window events: by timestamp, then established
// events (global seq already assigned) before fresh posts — a fresh post
// always receives a larger global seq than any event that existed when the
// window opened — then fresh posts by lane-local post order, which is the
// order the serial engine would have posted (and hence sequenced) them.
func laneBefore(a, b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	if a.fresh != b.fresh {
		return !a.fresh
	}
	return a.seq < b.seq
}

// laneAdd places an event into the lane's sorted pending run. Established
// events arrive from open() in global pop order — already sorted — and a
// fresh post usually belongs at the tail, so the common case is a plain
// append; anything else binary-inserts into the unconsumed suffix.
func (l *lane) laneAdd(e *event) {
	if n := len(l.pending); n == l.phead || laneBefore(l.pending[n-1], e) {
		l.pending = append(l.pending, e)
		return
	}
	lo, hi := l.phead, len(l.pending)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if laneBefore(l.pending[mid], e) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	l.pending = append(l.pending, nil)
	copy(l.pending[lo+1:], l.pending[lo:])
	l.pending[lo] = e
}

// newStep appends (or recycles) a step record for event e.
func (l *lane) newStep(e *event) *laneStep {
	if len(l.steps) < cap(l.steps) {
		l.steps = l.steps[:len(l.steps)+1]
	} else {
		l.steps = append(l.steps, laneStep{})
	}
	st := &l.steps[len(l.steps)-1]
	st.ev = e
	st.posts = st.posts[:0]
	st.effects = st.effects[:0]
	st.edges = st.edges[:0]
	st.barrier = nil // barrierAt is only read under a non-nil barrier
	st.panicked = nil
	st.skipped = false
	return st
}

// postLocal buffers an event posted by this lane's running Proc. Events
// destined for this lane inside the current window also enter the lane's
// pending heap so they are processed before the window closes, exactly as
// the serial engine would.
func (l *lane) postLocal(at Time, kind eventKind, dst, from *Proc, msg any, posted Time, cause uint8) {
	e := l.pool.get()
	e.at, e.kind, e.proc, e.from, e.msg = at, kind, dst, from, msg
	e.posted, e.cause = posted, cause
	e.fresh = true
	e.seq = l.postKey
	l.postKey++
	l.cur.posts = append(l.cur.posts, e)
	if at < l.windowEnd && dst.lane == l {
		l.laneAdd(e)
		l.inWin++
	}
}

// run drains the lane's pending window events, mirroring the serial
// kernel's dispatch for each one and logging a step per event. The calling
// pool worker is the lane's trampoline for this window (dispatch.go).
func (l *lane) run() { drive(l.laneNext()) }

// laneNext dispatches the lane's pending window events on the calling
// goroutine until one wakes a goroutine Proc (see serialNext for the
// contract); nil means the lane's window work is done.
func (l *lane) laneNext() *Proc {
	for {
		if l.stopped || l.phead == len(l.pending) {
			return nil
		}
		e := l.pending[l.phead]
		l.pending[l.phead] = nil
		l.phead++
		st := l.newStep(e)
		l.cur = st
		p := e.proc
		if p.state == stateDone {
			st.skipped = true
			continue
		}
		switch e.kind {
		case evResume:
			if p.state == stateRunning {
				panic("sim: resume of running proc")
			}
			if e.at > p.now {
				if p.aslot != nil {
					p.chargeWait(e.at - p.now)
				}
				if p.k.rec != nil {
					p.resumeEdge(e.at, e.posted, p.now, e.from, e.cause)
				}
				p.now = e.at
			}
			if p.hfn != nil {
				continue
			}
		case evDeliver:
			if p.hfn != nil {
				// Handler Proc: run its body inline (handler.go). A panic
				// stops the lane as a goroutine Proc's does (Proc.finish).
				if !p.handle(Delivery{At: e.at, Posted: e.posted, From: e.from, Msg: e.msg}) {
					st.panicked = p.panicVal
					l.stopped = true
				}
				continue
			}
			p.mpush(Delivery{At: e.at, Posted: e.posted, From: e.from, Msg: e.msg})
			if p.state != stateBlockedRecv {
				continue
			}
		}
		p.state = stateRunning
		return p
	}
}

// winExec drives window execution when lanes run serialized — Workers <= 1
// (chain mode), or a single-active-lane window under a worker pool. The
// per-lane fork/join (worker handoff in, park rendezvous out) is pure
// overhead when only one lane runs at a time; instead the baton crosses
// lane boundaries directly: a Proc whose lane has drained continues
// dispatching the next active lane's events inline. A lane's pending set
// never refills after draining — in-window posts land only on the posting
// Proc's own lane — so one forward sweep suffices.
//
// In chain mode the baton crosses window boundaries too: the Proc that
// drains the window's last lane commits the window, opens the next one,
// and keeps dispatching. The engine goroutine is the trampoline for the
// whole run and runs out of Procs only when the run stops — scheduler
// drained, commit error, or a re-raised Proc panic (recorded on
// err/panicVal). The commit still runs single-threaded in global order on
// whichever coroutine holds the baton, so its semantics are unchanged.
type winExec struct {
	k      *Kernel
	width  Time          // executed window width (scalar, or the matrix's min row)
	rowMin []Time        // per-lane causal horizons for violation checks (nil = scalar)
	chain  bool          // commit + reopen windows inline (serialized engine)
	eng    *EngineFlight // non-nil when the flight recorder is on

	active    []*lane
	order     []*lane // lane of each window event, in global (at, seq) pop order
	idx       int
	base      Time // window start T (earliest pending event when opened)
	windowEnd Time // executed window bound T + width
	pending   int  // window events handed to lanes, not yet committed

	err      error
	panicVal any // a Proc-body panic re-raised by the commit
	fault    any // a commit-machinery panic (lookahead violation, divergence)
}

// laneEnd returns lane l's causal horizon for this window: T plus its row
// minimum of the pair-lookahead matrix, or the uniform scalar bound. A
// cross-lane post below this is a lookahead violation even when it lands
// past the (narrower) executed window. Valid for inactive lanes too — the
// commit checks posts against the *target* lane's horizon, whether or not
// that lane woke this round.
func (x *winExec) laneEnd(l *lane) Time {
	if x.rowMin == nil {
		return x.windowEnd
	}
	return x.base + x.rowMin[l.id]
}

// open claims the next conservative window [T, T+width): it checks the
// runaway guard, then moves every queued event inside the window onto its
// lane's pending heap. The scheduler must be non-empty.
func (x *winExec) open() error {
	k := x.k
	if k.MaxEvents > 0 && k.processed >= k.MaxEvents {
		return &RunawayError{Events: k.processed, At: k.sched.peek().at}
	}
	var t0 time.Time
	if x.eng != nil {
		t0 = time.Now()
	}
	x.base = k.sched.peek().at
	x.windowEnd = x.base + x.width
	x.active = x.active[:0]
	x.order = x.order[:0]
	x.idx = 0
	x.pending = 0
	for {
		e := k.sched.popBefore(x.windowEnd)
		if e == nil {
			break
		}
		l := e.proc.lane
		if !l.active {
			l.active = true
			l.windowEnd = x.windowEnd
			x.active = append(x.active, l)
		}
		l.pending = append(l.pending, e)
		x.order = append(x.order, l)
		x.pending++
	}
	if x.eng != nil {
		x.eng.observe(len(x.active), x.pending)
		x.eng.OpenNS += time.Since(t0).Nanoseconds()
	}
	return nil
}

// close commits the drained window and resets its lanes for the next one.
// It reports whether the run may continue; on a commit error or a
// re-raised Proc panic the outcome is recorded on err/panicVal.
func (x *winExec) close() bool {
	var t0 time.Time
	if x.eng != nil {
		t0 = time.Now()
	}
	x.err, x.panicVal = x.k.commitWindow(x)
	if x.eng != nil {
		x.eng.CommitNS += time.Since(t0).Nanoseconds()
	}
	ok := x.err == nil && x.panicVal == nil
	for _, l := range x.active {
		if ok && l.next != len(l.steps) {
			panic(fmt.Sprintf(
				"sim: parallel commit diverged from lane %d execution: %d of %d steps committed",
				l.id, l.next, len(l.steps)))
		}
		l.active = false
		l.stopped = false
		l.pending = l.pending[:0]
		l.phead = 0
		l.steps = l.steps[:0]
		l.next = 0
		l.postKey = 0
		l.inWin = 0
		l.cur = nil
		l.claim = 0 // engine goroutine, after the pool joined: no CAS in flight
	}
	return ok
}

// next dispatches remaining window events across lanes on the calling
// goroutine; the contract matches serialNext. In chain mode a drained
// window is committed and the next one opened without releasing the baton,
// visiting the lane of self — the calling Proc, if it can run again —
// first.
func (x *winExec) next(self *Proc) *Proc {
	for {
		// Per-lane dispatch, inlined from laneNext: this runs once per
		// simulated event, and the extra call frames measurably slow the
		// serialized engine's hot loop.
		for x.idx < len(x.active) {
			l := x.active[x.idx]
			for !l.stopped && l.phead < len(l.pending) {
				e := l.pending[l.phead]
				l.pending[l.phead] = nil
				l.phead++
				st := l.newStep(e)
				l.cur = st
				p := e.proc
				if p.state == stateDone {
					st.skipped = true
					continue
				}
				switch e.kind {
				case evResume:
					if p.state == stateRunning {
						panic("sim: resume of running proc")
					}
					if e.at > p.now {
						if p.aslot != nil {
							p.chargeWait(e.at - p.now)
						}
						if p.k.rec != nil {
							p.resumeEdge(e.at, e.posted, p.now, e.from, e.cause)
						}
						p.now = e.at
					}
					if p.hfn != nil {
						continue
					}
				case evDeliver:
					if p.hfn != nil {
						if !p.handle(Delivery{At: e.at, Posted: e.posted, From: e.from, Msg: e.msg}) {
							st.panicked = p.panicVal
							l.stopped = true
						}
						continue
					}
					p.mpush(Delivery{At: e.at, Posted: e.posted, From: e.from, Msg: e.msg})
					if p.state != stateBlockedRecv {
						continue
					}
				}
				p.state = stateRunning
				return p
			}
			x.idx++
		}
		if !x.chain || !x.advance(self) {
			return nil
		}
	}
}

// advance closes the drained window and opens the next one (chain mode).
// It reports whether dispatch may continue. The commit's own diagnostic
// panics — lookahead violation, ordering divergence — may fire on a Proc
// goroutine here; they are captured as a fault and re-raised by
// RunParallel on the engine goroutine, where callers can recover them.
func (x *winExec) advance(self *Proc) (ok bool) {
	defer func() {
		if r := recover(); r != nil {
			x.fault = r
			ok = false
		}
	}()
	if !x.close() {
		return false
	}
	if x.k.sched.len() == 0 {
		return false
	}
	if err := x.open(); err != nil {
		x.err = err
		return false
	}
	// Locality rotation: visit the committing Proc's own lane first. Lane
	// visit order within a window is semantically free — lanes are
	// independent and the commit order is fixed separately (x.order / the
	// merge) — and starting with self's lane lets its next event continue
	// on this coroutine, skipping a switch at the window boundary.
	if self != nil && self.lane.active {
		for j, c := range x.active {
			if c == self.lane {
				x.active[0], x.active[j] = c, x.active[0]
				break
			}
		}
	}
	return true
}

// run1 executes a single-active-lane window with the engine goroutine as
// its trampoline (no worker handoff). Worker-pool mode only; the engine
// commits the window afterwards.
func (x *winExec) run1() {
	l := x.active[0]
	l.wex = x
	drive(x.next(nil))
	l.wex = nil
}

// RunParallel executes the simulation with the conservative parallel
// engine. It produces results byte-identical to Run: same final Proc
// clocks, same message sequence numbers, same KernelStats, and OnCommit
// effects in the same global order.
func (k *Kernel) RunParallel(cfg ParallelConfig) error {
	if k.finished {
		return fmt.Errorf("sim: kernel already ran")
	}
	if cfg.Lookahead <= 0 && cfg.PairLookahead == nil {
		panic("sim: RunParallel requires a positive lookahead")
	}
	nlanes, laneOf := cfg.Lanes, cfg.LaneOf
	if nlanes <= 0 {
		nlanes = len(k.procs)
		laneOf = func(p *Proc) int { return p.id }
	} else if laneOf == nil {
		panic("sim: ParallelConfig.Lanes set without LaneOf")
	}

	// Collapse the pair matrix into per-lane causal horizons: lane j
	// cannot be reached by any other lane before T + rowMin[j], rowMin[j]
	// = min over i != j of PairLookahead(i, j). The executed window width
	// is the narrowest horizon (committing ragged windows would reorder
	// effects; see PairLookahead), and each lane's own horizon backs the
	// commit's per-pair violation checks.
	var rowMin []Time
	width := cfg.Lookahead
	if cfg.PairLookahead != nil && nlanes > 1 {
		rowMin = make([]Time, nlanes)
		width = 0
		for j := 0; j < nlanes; j++ {
			min := Time(0)
			for i := 0; i < nlanes; i++ {
				if i == j {
					continue
				}
				v := cfg.PairLookahead(i, j)
				if v <= 0 {
					panic(fmt.Sprintf("sim: PairLookahead(%d,%d) = %v, must be positive", i, j, v))
				}
				if min == 0 || v < min {
					min = v
				}
			}
			rowMin[j] = min
			if width == 0 || min < width {
				width = min
			}
		}
	}
	if width <= 0 {
		panic("sim: RunParallel requires a positive lookahead")
	}
	k.started = true
	k.parallel = true
	lanes := make([]*lane, nlanes)
	for i := range lanes {
		lanes[i] = &lane{id: i}
	}
	for _, p := range k.procs {
		li := laneOf(p)
		if li < 0 || li >= nlanes {
			panic(fmt.Sprintf("sim: LaneOf(%q) = %d out of range [0,%d)", p.name, li, nlanes))
		}
		p.lane = lanes[li]
	}
	defer k.reap()

	// Workers beyond GOMAXPROCS cannot add parallelism — they only add
	// scheduling overhead and window-broadcast rendezvous — so the pool
	// is clamped to the host's usable CPUs (results are
	// worker-independent).
	workers := cfg.Workers
	if max := runtime.GOMAXPROCS(0); workers > max {
		workers = max
	}
	if workers > nlanes {
		workers = nlanes
	}

	if k.rec != nil {
		k.eng = &EngineFlight{LaneHist: make([]int64, nlanes)}
	}
	wx := &winExec{k: k, width: width, rowMin: rowMin, eng: k.eng}

	// Pool mode: each window is broadcast to every worker. Worker w owns
	// the active-lane positions congruent to w mod workers and claims
	// each with a CAS before running it; once its own positions are
	// drained it scans the other workers' positions tail-first
	// (classic deque stealing) so a worker stuck behind one hot lane
	// does not idle the rest of the pool. Which worker executes a lane
	// is a race, but it is a benign one: every lane runs exactly once,
	// lane execution only touches lane-local state, and the commit
	// order is fixed by (timestamp, sequence) — results are
	// byte-identical no matter who ran what. Workers signal completion
	// per *window* (not per lane), so by the time the engine commits,
	// no worker is touching claim flags.
	var wg sync.WaitGroup
	var steals int64
	var pool []chan *winExec
	if workers > 1 {
		pool = make([]chan *winExec, workers)
		for i := range pool {
			pool[i] = make(chan *winExec, 1)
		}
		defer func() {
			for _, ch := range pool {
				close(ch)
			}
		}()
		for w := 0; w < workers; w++ {
			go func(w int) {
				for x := range pool[w] {
					n := len(x.active)
					for i := w; i < n; i += workers {
						l := x.active[i]
						if atomic.CompareAndSwapUint32(&l.claim, 0, 1) {
							l.run()
						}
					}
					for off := 1; off < workers; off++ {
						v := (w + off) % workers
						if v >= n {
							continue
						}
						for i := v + (n-1-v)/workers*workers; i >= v; i -= workers {
							l := x.active[i]
							if atomic.CompareAndSwapUint32(&l.claim, 0, 1) {
								atomic.AddInt64(&steals, 1)
								l.run()
							}
						}
					}
					wg.Done()
				}
			}(w)
		}
	}

	if pool == nil {
		// Serialized engine: the baton chains across lanes and windows
		// alike, so the entire run costs the same coroutine switches as
		// the serial engine.
		wx.chain = true
		for _, l := range lanes {
			l.wex = wx
		}
		if k.sched.len() > 0 {
			if err := wx.open(); err != nil {
				return err
			}
			drive(wx.next(nil))
			if wx.fault != nil {
				panic(wx.fault)
			}
			if wx.panicVal != nil {
				panic(wx.panicVal)
			}
			if wx.err != nil {
				return wx.err
			}
		}
		return k.conclude()
	}

	for k.sched.len() > 0 {
		if err := wx.open(); err != nil {
			return err
		}
		var t0 time.Time
		if k.eng != nil {
			t0 = time.Now()
		}
		if len(wx.active) == 1 {
			wx.run1()
		} else {
			wg.Add(workers)
			for _, ch := range pool {
				ch <- wx
			}
			wg.Wait()
		}
		if k.eng != nil {
			k.eng.ExecNS += time.Since(t0).Nanoseconds()
			k.eng.Steals = atomic.LoadInt64(&steals)
		}
		if !wx.close() {
			if wx.panicVal != nil {
				panic(wx.panicVal)
			}
			return wx.err
		}
	}
	if k.eng != nil {
		k.eng.Steals = atomic.LoadInt64(&steals)
	}
	return k.conclude()
}

// commitWindow replays the window's events in global (timestamp, sequence)
// order, assigning real sequence numbers to buffered posts, applying
// barrier arrivals, and running deferred effects. It mirrors the serial
// engine's statistics exactly: pending (the count of window events not yet
// committed) plus the global queue length is, at every step, the serial
// engine's event-queue length at the corresponding moment.
//
// When no lane posted an event inside the window — the dominant case, as
// cross-lane traffic lands at or past windowEnd by the lookahead bound —
// every committed event was already sequenced when open() popped it from
// the scheduler, so the global order is precisely the recorded pop order
// and the commit is a linear walk. Otherwise the active lanes' step logs
// are still sorted runs (established events in pop order, fresh posts
// sequenced in commit order before they can reach a log head), and the
// global order is their k-way merge via a min-scan.
func (k *Kernel) commitWindow(x *winExec) (error, any) {
	merge := false
	for _, l := range x.active {
		if l.inWin > 0 {
			merge = true
			break
		}
	}
	if merge && x.eng != nil {
		x.eng.MergedWindows++
	}
	pending := x.pending
	if !merge {
		// Specialized walk: every post routes out of the window (a fresh
		// in-window post would have set inWin), so pending only shrinks
		// and the scheduler length can be tracked without re-querying.
		qlen := k.sched.len()
		for _, l := range x.order {
			if l.next >= len(l.steps) {
				panic(fmt.Sprintf(
					"sim: parallel commit diverged from lane %d execution: step %d missing",
					l.id, l.next))
			}
			st := &l.steps[l.next]
			e := st.ev
			if k.MaxEvents > 0 && k.processed >= k.MaxEvents {
				return &RunawayError{Events: k.processed, At: e.at}, nil
			}
			if n := qlen + pending; n > k.maxQueue {
				k.maxQueue = n
			}
			k.processed++
			l.next++
			pending--
			if !st.skipped {
				if e.kind == evResume {
					k.resumes++
				} else {
					k.deliveries++
				}
			}
			for _, pe := range st.posts {
				pe.seq = k.seq
				k.seq++
				pe.fresh = false
				// A same-lane post past the window routes out by
				// construction (an in-window one would have forced the
				// merge path); a cross-lane post must clear the target
				// lane's causal horizon.
				if pl := pe.proc.lane; pl != l && pe.at < x.laneEnd(pl) {
					panic(fmt.Sprintf(
						"sim: lookahead violation: %q scheduled an event on lane %d at %v, inside that lane's horizon ending %v",
						e.proc.name, pl.id, pe.at, x.laneEnd(pl)))
				}
				k.sched.push(pe)
				qlen++
			}
			if k.rec != nil {
				for _, ed := range st.edges {
					k.rec.push(ed)
				}
			}
			for _, fn := range st.effects {
				fn()
			}
			if st.barrier != nil {
				k.applyArrival(st, x)
				qlen = k.sched.len() // arrival may post release events
			}
			if st.panicked != nil {
				return nil, st.panicked
			}
			l.pool.put(e)
		}
		return nil, nil
	}
	single := len(x.active) == 1
	for {
		var l *lane
		if single {
			l = x.active[0]
			if l.next >= len(l.steps) {
				return nil, nil
			}
		} else {
			for _, c := range x.active {
				if c.next >= len(c.steps) {
					continue
				}
				if l == nil {
					l = c
					continue
				}
				a, b := c.steps[c.next].ev, l.steps[l.next].ev
				if a.at < b.at || (a.at == b.at && a.seq < b.seq) {
					l = c
				}
			}
			if l == nil {
				return nil, nil
			}
		}
		if err, pv := k.commitStep(l, x, &pending); err != nil || pv != nil {
			return err, pv
		}
	}
}

// commitStep commits lane l's next logged step: statistics, post
// sequencing and routing, deferred effects, barrier arrival. It returns a
// non-nil error (runaway) or panic value when the run must stop at this
// step.
func (k *Kernel) commitStep(l *lane, x *winExec, pending *int) (error, any) {
	st := &l.steps[l.next]
	e := st.ev
	if k.MaxEvents > 0 && k.processed >= k.MaxEvents {
		return &RunawayError{Events: k.processed, At: e.at}, nil
	}
	if n := k.sched.len() + *pending; n > k.maxQueue {
		k.maxQueue = n
	}
	k.processed++
	l.next++
	*pending--
	if !st.skipped {
		if e.kind == evResume {
			k.resumes++
		} else {
			k.deliveries++
		}
	}
	for _, pe := range st.posts {
		pe.seq = k.seq
		k.seq++
		pe.fresh = false
		if pl := pe.proc.lane; pl == l {
			// Same lane: in-window posts were executed by the lane
			// (postLocal added them); later ones route out. The posting
			// lane needs no lookahead from itself.
			if pe.at < x.windowEnd {
				*pending++
			} else {
				k.sched.push(pe)
			}
		} else {
			if pe.at < x.laneEnd(pl) {
				panic(fmt.Sprintf(
					"sim: lookahead violation: %q scheduled an event on lane %d at %v, inside that lane's horizon ending %v",
					e.proc.name, pl.id, pe.at, x.laneEnd(pl)))
			}
			k.sched.push(pe)
		}
	}
	if k.rec != nil {
		for _, ed := range st.edges {
			k.rec.push(ed)
		}
	}
	for _, fn := range st.effects {
		fn()
	}
	if st.barrier != nil {
		k.applyArrival(st, x)
	}
	if st.panicked != nil {
		return nil, st.panicked
	}
	l.pool.put(e)
	return nil, nil
}

// applyArrival applies one logged barrier arrival in commit order. The
// arrival is always the final action of its activation (Wait blocks), so
// applying it after the activation's posts preserves the serial sequence.
func (k *Kernel) applyArrival(st *laneStep, x *winExec) {
	b := st.barrier
	p := st.ev.proc
	b.count++
	if st.barrierAt > b.maxAt {
		b.maxAt = st.barrierAt
	}
	if b.count < b.n {
		b.waiters = append(b.waiters, p)
		return
	}
	// Last arrival: release everyone (waiters in arrival order, then the
	// last arriver) in one batch, exactly as the serial Wait does. Each
	// released Proc's resume must land at or past its own lane's window
	// end — inside the window that lane already executed past the release
	// point, a divergence from serial order.
	release := b.maxAt + b.cost
	for _, w := range b.waiters {
		if end := x.laneEnd(w.lane); release < end {
			panic(fmt.Sprintf(
				"sim: lookahead violation: barrier release at %v inside lane %d's window ending %v (barrier cost < lookahead)",
				release, w.lane.id, end))
		}
	}
	if end := x.laneEnd(p.lane); release < end {
		panic(fmt.Sprintf(
			"sim: lookahead violation: barrier release at %v inside lane %d's window ending %v (barrier cost < lookahead)",
			release, p.lane.id, end))
	}
	k.releaseAll(b.waiters, p, release, b.maxAt)
	b.count = 0
	b.maxAt = 0
	b.waiters = b.waiters[:0]
	b.epoch++
}
