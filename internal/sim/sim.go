// Package sim provides a deterministic discrete-event simulation kernel.
//
// The kernel models a parallel machine in virtual time. Each simulated
// activity is a Proc: a coroutine (coro.go) with a private virtual clock
// that exchanges timestamped messages with other Procs and synchronizes at
// barriers. A Proc that only ever reacts to messages — a protocol
// processor running run-to-completion handlers — is a handler Proc
// (SpawnHandler): the same clock, attribution and lane, but no goroutine;
// the dispatch loop runs its body inline (see handler.go).
// Under the serial engine (Run) the kernel serializes execution —
// exactly one Proc runs at any real instant, and control is handed out in
// global (timestamp, sequence) order by user-level switches that wake no
// thread (dispatch.go) — so simulations are fully deterministic and need
// no locking in the simulated node state.
//
// The parallel engine (RunParallel) executes groups of Procs ("lanes")
// concurrently inside conservative lookahead windows and commits their
// side effects in the same global (timestamp, sequence) order, producing
// results byte-identical to the serial engine; see parallel.go.
//
// A Proc advances its own clock with Advance (batched, without yielding to
// the kernel); cross-Proc interaction happens only through timestamped
// messages (Send/Recv) and barriers (Barrier.Wait). This discipline gives
// causally correct virtual time for programs whose cross-Proc interactions
// are message-mediated, which holds for the data-race-free phase-structured
// programs this repository simulates.
package sim

import (
	"fmt"
	"sort"
	"strings"
)

// Time is virtual time in nanoseconds.
type Time int64

// Common virtual-time units.
const (
	Nanosecond  Time = 1
	Microsecond Time = 1000 * Nanosecond
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
)

// String formats a Time with an adaptive unit.
func (t Time) String() string {
	switch {
	case t >= Second:
		return fmt.Sprintf("%.3fs", float64(t)/float64(Second))
	case t >= Millisecond:
		return fmt.Sprintf("%.3fms", float64(t)/float64(Millisecond))
	case t >= Microsecond:
		return fmt.Sprintf("%.3fus", float64(t)/float64(Microsecond))
	default:
		return fmt.Sprintf("%dns", int64(t))
	}
}

// Seconds reports t as floating-point seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// procState tracks what a Proc goroutine is currently doing.
type procState int

const (
	stateNew procState = iota
	stateRunnable
	stateRunning
	stateBlockedRecv
	stateBlockedBarrier
	stateSleeping
	stateDone
)

func (s procState) String() string {
	switch s {
	case stateNew:
		return "new"
	case stateRunnable:
		return "runnable"
	case stateRunning:
		return "running"
	case stateBlockedRecv:
		return "blocked-recv"
	case stateBlockedBarrier:
		return "blocked-barrier"
	case stateSleeping:
		return "sleeping"
	case stateDone:
		return "done"
	}
	return "unknown"
}

// Delivery is a message as received: payload plus provenance and the
// virtual time at which it arrived at the destination.
type Delivery struct {
	At     Time  // arrival time at the destination
	Posted Time  // sender's clock when the message was sent
	From   *Proc // sending Proc (nil for kernel-injected messages)
	Msg    any   // payload
}

// Proc is a simulated sequential activity with its own virtual clock.
type Proc struct {
	k      *Kernel
	id     int
	name   string
	daemon bool

	now   Time
	state procState

	// Mailbox is a power-of-two ring buffer ordered by arrival (the
	// kernel delivers in time order), so dequeue is O(1) regardless of
	// backlog depth.
	mbox  []Delivery
	mhead int
	mlen  int

	// The Proc's coroutine (coro.go); all nil for a handler Proc, which has
	// no goroutine. to is the baton: the Proc the trampoline resumes after
	// this one parks or returns (nil: none, the run stops).
	next     func() (struct{}, bool)
	stop     func()
	park     func(struct{}) bool
	to       *Proc
	switches int64 // times the trampoline resumed this Proc

	lane   *lane // non-nil while running under the parallel engine
	fn     func(*Proc)
	hfn    func(*Proc, Delivery) // handler Proc body (handler.go); fn is nil
	killed bool                  // the engine is returning: unwind instead of resuming

	// Time attribution (record.go). aslot == nil — the default — disables
	// charging entirely; the hot paths then pay one nil check.
	aslot   *AttrSlot
	runCat  AttrCat // category charged by Advance
	waitCat AttrCat // category charged by blocking-wake clock jumps

	err      error // set if fn panicked
	panicVal any
}

// ID returns the Proc's kernel-assigned identifier (dense, from 0).
func (p *Proc) ID() int { return p.id }

// Name returns the Proc's diagnostic name.
func (p *Proc) Name() string { return p.name }

// Now returns the Proc's current virtual time. It may only be called from
// the Proc's own goroutine.
func (p *Proc) Now() Time { return p.now }

// Advance adds d to the Proc's virtual clock without yielding to the
// kernel. Negative durations are ignored. Under attribution the time is
// charged to the Proc's running category (SetRunCat).
func (p *Proc) Advance(d Time) {
	if d > 0 {
		p.now += d
		if p.aslot != nil {
			p.aslot[p.runCat] += d
		}
	}
}

// mpush appends a delivery to the mailbox ring.
func (p *Proc) mpush(d Delivery) {
	if p.mlen == len(p.mbox) {
		p.mgrow()
	}
	p.mbox[(p.mhead+p.mlen)&(len(p.mbox)-1)] = d
	p.mlen++
}

func (p *Proc) mgrow() {
	newCap := len(p.mbox) * 2
	if newCap == 0 {
		newCap = 8
	}
	nb := make([]Delivery, newCap)
	for i := 0; i < p.mlen; i++ {
		nb[i] = p.mbox[(p.mhead+i)&(len(p.mbox)-1)]
	}
	p.mbox = nb
	p.mhead = 0
}

// mpop removes and returns the earliest delivery. Caller guarantees mlen > 0.
func (p *Proc) mpop() Delivery {
	d := p.mbox[p.mhead]
	p.mbox[p.mhead] = Delivery{} // drop payload references for GC
	p.mhead = (p.mhead + 1) & (len(p.mbox) - 1)
	p.mlen--
	return d
}

// event kinds processed by the kernel loop.
type eventKind int

const (
	evResume  eventKind = iota // wake a blocked/new Proc at ev.at
	evDeliver                  // deliver ev.msg to ev.proc at ev.at
)

type event struct {
	at     Time
	posted Time // poster's clock when the event was scheduled
	seq    uint64
	kind   eventKind
	proc   *Proc
	from   *Proc
	msg    any

	// cause classifies evResume events for the flight recorder
	// (record.go): causeTimer for Sleep expiries, causeBarrier for
	// barrier releases, causeNone for the initial spawn resume.
	cause uint8

	// fresh marks an event posted during the current lookahead window of
	// a parallel run: its seq is a provisional lane-local order key until
	// the commit replay assigns the real global sequence number.
	fresh bool
}

// eventPool is a free list of event nodes. Events are recycled once
// processed, so steady-state send/recv traffic allocates nothing.
type eventPool struct{ free []*event }

func (ep *eventPool) get() *event {
	if n := len(ep.free); n > 0 {
		e := ep.free[n-1]
		ep.free[n-1] = nil
		ep.free = ep.free[:n-1]
		return e
	}
	return &event{}
}

func (ep *eventPool) put(e *event) {
	*e = event{}
	ep.free = append(ep.free, e)
}

// eventHeap is a binary min-heap over (at, seq), hand-rolled to avoid the
// container/heap interface boxing on the hot path.
type eventHeap []*event

func (h eventHeap) less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}

func (h *eventHeap) push(e *event) {
	q := append(*h, e)
	*h = q
	i := len(q) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !q.less(i, parent) {
			break
		}
		q[i], q[parent] = q[parent], q[i]
		i = parent
	}
}

func (h *eventHeap) pop() *event {
	q := *h
	n := len(q) - 1
	e := q[0]
	q[0] = q[n]
	q[n] = nil
	q = q[:n]
	*h = q
	i := 0
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		c := l
		if r := l + 1; r < n && q.less(r, l) {
			c = r
		}
		if !q.less(c, i) {
			break
		}
		q[i], q[c] = q[c], q[i]
		i = c
	}
	return e
}

func (h eventHeap) peek() *event { return h[0] }

// Kernel owns the event queue and all Procs of one simulation.
type Kernel struct {
	procs []*Proc
	sched scheduler
	seq   uint64
	pool  eventPool
	batch []*event // scratch for batch barrier releases

	// why the serial trampoline ran out of Procs (dispatch.go).
	stop   stopReason
	stopAt Time
	failed *Proc

	started  bool
	finished bool
	parallel bool

	// MaxEvents, when positive, bounds the number of events Run will
	// process — a guard against protocol livelock in tests.
	MaxEvents int64
	processed int64

	deliveries int64
	resumes    int64
	maxQueue   int

	// Causal profiling (record.go). Both are nil unless EnableRecorder
	// ran; every hot-path hook guards on that nil.
	rec *Recorder
	eng *EngineFlight
}

// KernelStats is the kernel's own accounting: total events dispatched,
// the split into message deliveries and Proc resumes (scheduling), and
// the event queue's high-water mark. Deterministic for a deterministic
// simulation — and identical across the serial and parallel engines — so
// exact values are assertable in tests.
type KernelStats struct {
	Events     int64 `json:"events"`
	Deliveries int64 `json:"deliveries"`
	Resumes    int64 `json:"resumes"`
	MaxQueue   int   `json:"max_queue"`
	Procs      int   `json:"procs"`
}

// Stats returns the kernel's dispatch statistics so far.
func (k *Kernel) Stats() KernelStats {
	return KernelStats{
		Events:     k.processed,
		Deliveries: k.deliveries,
		Resumes:    k.resumes,
		MaxQueue:   k.maxQueue,
		Procs:      len(k.procs),
	}
}

// NewKernel returns an empty simulation using the timing-wheel scheduler
// at DefaultWheelGranularity; UseScheduler selects the heap reference or a
// different bucket width.
func NewKernel() *Kernel {
	return &Kernel{sched: newWheel(DefaultWheelGranularity, 0)}
}

// Spawn registers a new Proc that will begin executing fn at virtual time 0
// when Run is called (or immediately, if the serial simulation is already
// running). Daemon Procs (see SetDaemon) do not prevent Run from
// completing. Spawning after RunParallel has started, or on a kernel that
// has finished, panics.
//
// fn runs on a coroutine resumed from the goroutine that called Run (or a
// pool worker of RunParallel), so a runtime.Goexit made by fn itself —
// t.FailNow from inside a Proc — ends that caller, with the kernel's
// teardown (reap) still running on the way out. The Go runtime requires
// the resuming goroutine to hold the OS-thread lock state Spawn was
// called under: a caller under runtime.LockOSThread must Spawn and Run on
// that one goroutine, without worker pools or daemons left to reap.
func (k *Kernel) Spawn(name string, fn func(*Proc)) *Proc {
	p := k.newProc(name)
	p.fn = fn
	p.start()
	return p
}

// newProc registers a Proc and posts the evResume that starts it at time 0.
func (k *Kernel) newProc(name string) *Proc {
	if k.finished {
		panic("sim: Spawn on a finished kernel")
	}
	if k.started && k.parallel {
		panic("sim: Spawn during a parallel run")
	}
	p := &Proc{
		k:       k,
		id:      len(k.procs),
		name:    name,
		state:   stateNew,
		waitCat: CatIdle,
	}
	k.procs = append(k.procs, p)
	e := k.pool.get()
	e.at, e.kind, e.proc = 0, evResume, p
	k.post(e)
	return p
}

// SetDaemon marks p as a daemon: the simulation is considered complete when
// every non-daemon Proc has finished, all remaining events have drained,
// and every daemon is blocked waiting for messages.
func (p *Proc) SetDaemon(d bool) { p.daemon = d }

// recordPanic notes that p's body panicked with r; the engine re-raises it.
func (p *Proc) recordPanic(r any) {
	p.err = fmt.Errorf("proc %q panicked: %v", p.name, r)
	p.panicVal = r
}

func (k *Kernel) post(e *event) {
	e.seq = k.seq
	k.seq++
	k.sched.push(e)
}

// releaseAll schedules an evResume at `at` for each waiter, then for self,
// as one scheduler batch with consecutive sequence numbers — event-for-
// event identical to posting them individually, but the wake times are
// precomputed up front and the wheel files the whole release with a single
// bucket append instead of n pushes. posted is the last arrival time (the
// release minus the barrier cost), carried for the flight recorder: the
// release edge spans [posted, at] with the last arriver (self) as source.
func (k *Kernel) releaseAll(waiters []*Proc, self *Proc, at, posted Time) {
	es := k.batch[:0]
	for _, w := range waiters {
		e := k.pool.get()
		e.at, e.kind, e.proc = at, evResume, w
		e.from, e.posted, e.cause = self, posted, causeBarrier
		e.seq = k.seq
		k.seq++
		es = append(es, e)
	}
	e := k.pool.get()
	e.at, e.kind, e.proc = at, evResume, self
	e.from, e.posted, e.cause = self, posted, causeBarrier
	e.seq = k.seq
	k.seq++
	es = append(es, e)
	k.sched.pushBatch(es)
	for i := range es {
		es[i] = nil // the scheduler owns them now
	}
	k.batch = es[:0]
}

// postFrom schedules an event on behalf of the running Proc p, routing it
// through p's lane buffer under the parallel engine. The poster's current
// clock is stamped as the event's posted time (flight-recorder edges).
func (p *Proc) postFrom(at Time, kind eventKind, dst, from *Proc, msg any, cause uint8) {
	if l := p.lane; l != nil {
		l.postLocal(at, kind, dst, from, msg, p.now, cause)
		return
	}
	e := p.k.pool.get()
	e.at, e.kind, e.proc, e.from, e.msg = at, kind, dst, from, msg
	e.posted, e.cause = p.now, cause
	p.k.post(e)
}

// OnCommit runs fn when the current event commits in global order. Under
// the serial engine that is immediately; under the parallel engine fn is
// buffered and invoked during the window's commit replay, after all
// virtual-time-earlier events of other lanes have committed. Side effects
// that escape the simulated node state (trace records, shared sinks) must
// go through OnCommit so both engines emit them in the same order. fn runs
// single-threaded, on whichever goroutine performs the commit; it must not
// call back into the kernel, and it
// must capture any simulated state it needs by value — the Proc may have
// run further ahead inside the window by the time fn executes.
func (p *Proc) OnCommit(fn func()) {
	if l := p.lane; l != nil {
		l.cur.effects = append(l.cur.effects, fn)
		return
	}
	fn()
}

// Send schedules delivery of msg to dst at p.Now()+delay. The sender's own
// clock is not advanced; model sender-side occupancy with Advance before
// calling Send. Delay must be non-negative.
func (p *Proc) Send(dst *Proc, msg any, delay Time) {
	if delay < 0 {
		panic("sim: negative send delay")
	}
	if dst == nil {
		panic("sim: send to nil proc")
	}
	p.postFrom(p.now+delay, evDeliver, dst, p, msg, causeNone)
}

// SendAt schedules delivery of msg to dst at absolute virtual time at
// (which must be >= the sender's current time).
func (p *Proc) SendAt(dst *Proc, msg any, at Time) {
	if at < p.now {
		panic("sim: SendAt into the past")
	}
	p.postFrom(at, evDeliver, dst, p, msg, causeNone)
}

// Recv blocks until a message is available and returns the earliest one.
// If the message arrived while the Proc was busy, the Proc's clock is
// unchanged (the message waited); otherwise the clock advances to the
// arrival time — a binding delivery, recorded as a causal edge and
// attributed (transit plus pre-post wait) when profiling is on.
func (p *Proc) Recv() Delivery {
	for p.mlen == 0 {
		p.mustHaveGoroutine("Recv")
		p.state = stateBlockedRecv
		p.yield()
	}
	d := p.mpop()
	p.arrive(d)
	return d
}

// TryRecv returns the earliest pending message, if any, without blocking.
func (p *Proc) TryRecv() (Delivery, bool) {
	if p.mlen == 0 {
		return Delivery{}, false
	}
	d := p.mpop()
	p.arrive(d)
	return d, true
}

// arrive applies a received delivery to the clock: a binding delivery (one
// the Proc was waiting for) jumps it to the arrival time, charged and
// recorded; a message that waited in the mailbox leaves it alone.
func (p *Proc) arrive(d Delivery) {
	if d.At > p.now {
		if p.aslot != nil {
			p.chargeRecv(d.At, d.Posted, p.now)
		}
		if p.k.rec != nil {
			p.record(Edge{Kind: EdgeDeliver, Src: procID(d.From), Dst: int32(p.id),
				At: d.At, Posted: d.Posted, Prev: p.now})
		}
		p.now = d.At
	}
}

// procID is the edge source id of a possibly-nil Proc.
func procID(p *Proc) int32 {
	if p == nil {
		return -1
	}
	return int32(p.id)
}

// Pending reports the number of messages waiting in the Proc's mailbox.
func (p *Proc) Pending() int { return p.mlen }

// Sleep blocks the Proc until its clock reaches now+d, letting other
// (earlier) events run meanwhile. Slept time is attributed to CatIdle.
func (p *Proc) Sleep(d Time) {
	if d <= 0 {
		return
	}
	p.mustHaveGoroutine("Sleep")
	p.postFrom(p.now+d, evResume, p, p, nil, causeTimer)
	p.state = stateSleeping // deliveries queue but do not wake a sleeper
	save := p.waitCat
	p.waitCat = CatIdle
	p.yield()
	p.waitCat = save
}

// Barrier synchronizes a fixed group of Procs. All participants block in
// Wait until the last arrives; every participant then resumes at
// max(arrival times) + Cost.
type Barrier struct {
	k    *Kernel
	n    int
	cost Time

	count   int
	maxAt   Time
	waiters []*Proc
	epoch   uint64
}

// NewBarrier creates a barrier for n participants with the given per-use
// synchronization cost (e.g. a log-tree of message latencies).
func (k *Kernel) NewBarrier(n int, cost Time) *Barrier {
	if n <= 0 {
		panic("sim: barrier with n <= 0")
	}
	return &Barrier{k: k, n: n, cost: cost}
}

// Wait enters the barrier and returns the virtual time this Proc spent
// waiting for the release (including the barrier cost).
func (p *Proc) Wait(b *Barrier) Time {
	if b.k != p.k {
		panic("sim: barrier from a different kernel")
	}
	p.mustHaveGoroutine("Wait")
	arrive := p.now
	if l := p.lane; l != nil {
		// Parallel engine: barrier state is shared across lanes, so the
		// arrival is only logged here; the commit replay applies it — and
		// synthesizes the release events — in global order (see
		// applyArrival in parallel.go).
		st := l.cur
		st.barrier = b
		st.barrierAt = arrive
		p.state = stateBlockedBarrier
		p.yield()
		return p.now - arrive
	}
	b.count++
	if arrive > b.maxAt {
		b.maxAt = arrive
	}
	if b.count < b.n {
		b.waiters = append(b.waiters, p)
		p.state = stateBlockedBarrier
		p.yield()
		return p.now - arrive
	}
	// Last arrival: release everyone (including self) at maxAt+cost, as
	// one batch — waiters in arrival order, then self.
	release := b.maxAt + b.cost
	p.k.releaseAll(b.waiters, p, release, b.maxAt)
	b.count = 0
	b.maxAt = 0
	b.waiters = b.waiters[:0]
	b.epoch++
	p.state = stateBlockedBarrier
	p.yield()
	return p.now - arrive
}

// RunawayError reports a simulation stopped by the MaxEvents guard
// (almost always a protocol livelock).
type RunawayError struct {
	Events int64
	At     Time
}

func (e *RunawayError) Error() string {
	return fmt.Sprintf("sim: runaway: %d events processed, virtual time %v", e.Events, e.At)
}

// Processed reports how many events Run has handled so far.
func (k *Kernel) Processed() int64 { return k.processed }

// DeadlockError reports a simulation that stopped with blocked non-daemon
// Procs and no pending events.
type DeadlockError struct {
	Blocked []string
}

func (e *DeadlockError) Error() string {
	return "sim: deadlock; blocked procs: " + strings.Join(e.Blocked, ", ")
}

// Run executes the simulation serially until every non-daemon Proc has
// finished and the event queue has drained. It returns a DeadlockError if
// non-daemon Procs remain blocked with no events pending, or the panic
// value if a Proc panicked. However it stops, no Proc goroutine outlives
// it (reap).
//
// "Serially" means one Proc runs at a time; the baton passes from Proc to
// Proc in global event order (see dispatch.go), and this goroutine is the
// trampoline that performs each switch.
func (k *Kernel) Run() error {
	if k.finished {
		return fmt.Errorf("sim: kernel already ran")
	}
	k.started = true
	defer k.reap()
	drive(k.serialNext())
	switch k.stop {
	case stopRunaway:
		return &RunawayError{Events: k.processed, At: k.stopAt}
	case stopPanic:
		panic(k.failed.panicVal)
	}
	return k.conclude()
}

// conclude scans a stopped simulation for deadlocked Procs.
func (k *Kernel) conclude() error {
	var blocked []string
	for _, p := range k.procs {
		if p.state == stateDone {
			continue
		}
		if p.daemon && p.state == stateBlockedRecv {
			continue
		}
		blocked = append(blocked, fmt.Sprintf("%s(%s)", p.name, p.state))
	}
	if len(blocked) > 0 {
		sort.Strings(blocked)
		return &DeadlockError{Blocked: blocked}
	}
	return nil
}

// Procs returns all Procs registered with the kernel, in spawn order.
func (k *Kernel) Procs() []*Proc { return k.procs }
