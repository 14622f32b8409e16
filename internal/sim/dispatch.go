package sim

// Direct-dispatch event loop.
//
// Exactly one Proc may run at a time, so the scheduler loop needs no
// goroutine of its own: it is a baton. A Proc that can no longer run
// executes the dispatch loop inline (serialNext) until an event wakes a
// goroutine Proc. If that Proc is itself — Sleep, self-delivery, a fault
// served entirely by handler Procs — it simply keeps running: zero
// switches. Events that wake nobody (a delivery to a busy Proc) are
// absorbed inline, and so are events for handler Procs, whose bodies run
// inside the loop (handler.go). Otherwise it records the woken Proc as its
// successor (Proc.to) and parks its coroutine (coro.go), which returns
// control to the trampoline — Run's goroutine — and the trampoline resumes
// the successor. Both halves are user-level coroswitches on the current
// thread; a channel rendezvous here would make the Go scheduler wake an
// idle P for a goroutine that can never run concurrently with its waker,
// a futex call per blocking fault.
//
// A dispatcher that returns nil has nothing left to dispatch — queue
// drained, MaxEvents exceeded, or a Proc panicked: the trampoline runs out
// and Run returns. Event order, statistics and observable behavior are
// those of a classic central loop. The lane and window dispatchers of the
// parallel engine (parallel.go) follow the same contract and share the
// yield and finish below.

// stopReason records why serialNext ran out of Procs to run.
type stopReason int

const (
	stopDrained stopReason = iota // event queue empty
	stopRunaway                   // MaxEvents guard tripped
	stopPanic                     // a Proc panicked (k.failed)
)

// serialNext dispatches pending events on the calling goroutine until one
// wakes a goroutine Proc, and returns that Proc — now stateRunning and
// owed the baton; the caller may be it. It returns nil after recording the
// stop reason on the kernel.
func (k *Kernel) serialNext() *Proc {
	for {
		if k.sched.len() == 0 {
			k.stop = stopDrained
			return nil
		}
		if k.MaxEvents > 0 && k.processed >= k.MaxEvents {
			k.stop = stopRunaway
			k.stopAt = k.sched.peek().at
			return nil
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
					return nil
				}
				continue
			}
			p.mpush(Delivery{At: at, Posted: posted, From: from, Msg: msg})
			if p.state != stateBlockedRecv {
				continue
			}
		}
		p.state = stateRunning
		return p
	}
}

// dispatch runs the dispatcher p lives under — serial, its lane's, or the
// window executor's when lanes run serialized — and returns the Proc to
// run next, nil for none. self is the calling Proc if it can be
// reactivated (a finished one passes nil).
func (p *Proc) dispatch(self *Proc) *Proc {
	l := p.lane
	switch {
	case l == nil:
		return p.k.serialNext()
	case l.wex != nil:
		return l.wex.next(self)
	}
	return l.laneNext()
}

// yield hands the baton onward from a Proc that has just blocked. The
// caller must have set its state (blocked/sleeping) beforehand; yield
// returns when an event reactivates the Proc — at once, without a switch,
// if that is the next event to wake anyone.
func (p *Proc) yield() {
	if q := p.dispatch(p); q != p {
		p.to = q
		p.block() // with q == nil, until the returning engine reaps it
	}
}

// finish names the successor of a Proc whose body has returned or
// panicked; it runs as the coroutine's final act. A panic stops the serial
// run, or the rest of the Proc's lane for this window — the commit
// re-raises it at this step's position in global order.
func (p *Proc) finish() {
	if p.panicVal != nil {
		l := p.lane
		if l == nil {
			p.k.stop, p.k.failed, p.to = stopPanic, p, nil
			return
		}
		l.cur.panicked, l.stopped = p.panicVal, true
	}
	p.to = p.dispatch(nil)
}
