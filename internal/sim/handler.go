package sim

import "fmt"

// Handler Procs.
//
// A protocol processor runs run-to-completion handlers: it waits for a
// message, reacts — advancing its clock, sending — and waits again. It
// never sleeps, never joins a barrier and never receives anywhere but at
// the top of its loop. As a goroutine Proc that is
//
//	Spawn(name, func(p *Proc) { for { fn(p, p.Recv()) } })
//
// and every delivery costs a coroutine switch to move the baton onto a
// goroutine whose stack holds nothing between messages.
//
// SpawnHandler(name, fn) is that loop without the goroutine. The Proc keeps
// its clock, attribution slot and lane; the dispatch loops (serialNext,
// laneNext, winExec.next) run fn inline on whichever goroutine holds the
// baton, applying Recv's clock, charge and edge logic first (arrive).
//
// The two are event-for-event identical. A delivery to a Proc blocked in
// Recv hands it the baton, and no other event is dispatched until it blocks
// again — for the loop above that is the next Recv, with nothing observable
// in between: the dispatcher just continues with the next event, which is
// exactly what running fn inline and continuing does. The spawn evResume is
// still posted and counted, so sequence numbers, KernelStats, recorder
// edges, OnCommit order and lane steps all agree. It is dispatched before
// any delivery to the Proc can be — spawn resumes are posted at time 0
// ahead of everything a running Proc posts — so the loop's mailbox never
// holds more than the message being handled, and the handler needs none.

// SpawnHandler registers a handler Proc: fn runs once per delivery, at the
// delivery's position in global event order, on the dispatching goroutine.
// fn may Advance, Send and OnCommit; it must not block — Recv, Sleep and
// Wait panic. A handler Proc never finishes, so it is a daemon.
func (k *Kernel) SpawnHandler(name string, fn func(*Proc, Delivery)) *Proc {
	p := k.newProc(name)
	p.hfn = fn
	p.daemon = true
	p.state = stateBlockedRecv // between messages, always
	return p
}

// mustHaveGoroutine panics when a handler Proc calls a blocking primitive.
func (p *Proc) mustHaveGoroutine(op string) {
	if p.hfn != nil {
		panic(fmt.Sprintf("sim: %s on handler proc %q: handlers run to completion and cannot block", op, p.name))
	}
}

// handle runs handler Proc p's body for one dispatched delivery — Recv's
// return and one iteration of the loop. It reports false when the body
// panicked: p is then done, with err and panicVal set on it.
func (p *Proc) handle(d Delivery) (ok bool) {
	defer func() {
		if r := recover(); r != nil {
			p.recordPanic(r)
			p.state = stateDone
		}
	}()
	p.arrive(d)
	p.hfn(p, d)
	return true
}
