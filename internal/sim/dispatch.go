package sim

// Direct-dispatch event loop.
//
// The serial engine used to bounce every event through a dedicated
// scheduler goroutine: a Proc that blocked handed control to the kernel
// goroutine (one channel rendezvous), which popped the next event and
// handed control to the next Proc (a second rendezvous) — two goroutine
// switches per dispatched event. Since exactly one goroutine may run at a
// time anyway, the scheduler loop does not need its own goroutine: it is
// a baton. Whichever Proc goroutine can no longer run executes the
// dispatch loop inline (serialNext) and transfers control directly to the
// Proc the next event wakes — one rendezvous — or, when the next event
// targets itself, simply keeps running with no channel operation at all
// (the Sleep/self-delivery fast path). Events that wake nobody (a
// delivery to a busy Proc) are absorbed inline without any switch, and so
// are events for handler Procs, whose bodies run inside the loop
// (handler.go): a fault's request → home handler → reply → local handler →
// wake chain completes on the faulting Proc's goroutine and usually ends in
// dispatchSelf.
//
// Run's goroutine only holds the baton at the very start and receives it
// back — via k.park — when the simulation stops: queue drained, MaxEvents
// exceeded, or a Proc panicked. The event order, statistics and observable
// behavior are exactly those of the classic central loop; only the number
// of goroutine switches changes. The lane engine applies the same pattern
// within each lane (see parallel.go).

// dispatchOutcome says where control went after a dispatch step.
type dispatchOutcome int

const (
	// dispatchSelf: the next event reactivated the calling Proc itself —
	// it may simply continue running (no channel operation happened).
	dispatchSelf dispatchOutcome = iota
	// dispatchHandoff: another Proc received the baton; the caller must
	// block (or, if finished, may exit).
	dispatchHandoff
	// dispatchStop: no further event can be dispatched here — the baton
	// must return to the engine goroutine.
	dispatchStop
)

// stopReason records why the baton came back to Run.
type stopReason int

const (
	stopDrained stopReason = iota // event queue empty
	stopRunaway                   // MaxEvents guard tripped
	stopPanic                     // a Proc panicked (k.failed)
)

// serialNext dispatches pending events on the calling goroutine until
// control must move: it returns dispatchSelf when an event reactivates
// self (the calling Proc), dispatchHandoff after waking a different Proc
// (which now owns the baton), or dispatchStop after recording the stop
// reason on the kernel. Pass self == nil when the caller cannot be
// reactivated (the engine goroutine, or a finished Proc).
func (k *Kernel) serialNext(self *Proc) dispatchOutcome {
	for {
		if k.sched.len() == 0 {
			k.stop = stopDrained
			return dispatchStop
		}
		if k.MaxEvents > 0 && k.processed >= k.MaxEvents {
			k.stop = stopRunaway
			k.stopAt = k.sched.peek().at
			return dispatchStop
		}
		if n := k.sched.len(); n > k.maxQueue {
			k.maxQueue = n
		}
		k.processed++
		e := k.sched.pop()
		p := e.proc
		at, kind, from, msg := e.at, e.kind, e.from, e.msg
		posted, cause := e.posted, e.cause
		k.pool.put(e)
		if p.state == stateDone {
			continue
		}
		switch kind {
		case evResume:
			k.resumes++
			if p.state == stateRunning {
				panic("sim: resume of running proc")
			}
			if at > p.now {
				if p.aslot != nil {
					p.chargeWait(at - p.now)
				}
				if k.rec != nil {
					p.resumeEdge(at, posted, p.now, from, cause)
				}
				p.now = at
			}
			if p.hfn != nil {
				continue // a handler Proc's spawn resume: counted, nothing to run
			}
		case evDeliver:
			k.deliveries++
			if p.hfn != nil {
				// Handler Proc: its body runs here, on this goroutine, and
				// dispatch continues (handler.go).
				if !p.handle(Delivery{At: at, Posted: posted, From: from, Msg: msg}) {
					k.stop, k.failed = stopPanic, p
					return dispatchStop
				}
				continue
			}
			p.mpush(Delivery{At: at, Posted: posted, From: from, Msg: msg})
			if p.state != stateBlockedRecv {
				continue
			}
		}
		p.state = stateRunning
		if p == self {
			return dispatchSelf
		}
		p.resume <- struct{}{}
		return dispatchHandoff
	}
}

// yield hands the baton onward from a Proc that has just blocked. The
// caller must have set its state (blocked/sleeping) beforehand; yield
// returns when an event reactivates the Proc.
func (p *Proc) yield() {
	if l := p.lane; l != nil {
		l.yieldFrom(p)
		return
	}
	switch p.k.serialNext(p) {
	case dispatchSelf:
		// Reactivated without leaving this goroutine.
	case dispatchHandoff:
		p.block()
	case dispatchStop:
		p.k.park <- struct{}{}
		p.block() // until the returning engine reaps it
	}
}

// finish passes the baton onward from a Proc whose body has returned (or
// panicked). It runs on the Proc's goroutine as its final act.
func (p *Proc) finish() {
	if l := p.lane; l != nil {
		l.finishFrom(p)
		return
	}
	k := p.k
	if p.panicVal != nil {
		k.stop = stopPanic
		k.failed = p
		k.park <- struct{}{}
		return
	}
	if k.serialNext(nil) == dispatchStop {
		k.park <- struct{}{}
	}
}
