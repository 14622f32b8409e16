//go:build go1.23

package sim

import (
	"iter"
	"runtime"
	"sync"
)

// Goroutine Procs as pull-coroutines: the one hand-off primitive of the
// serial, lane and window dispatchers (dispatch.go).

// start wraps p's body in a coroutine. Its goroutine exists from here on
// but runs only while a trampoline (drive) is inside p.next.
func (p *Proc) start() {
	p.next, p.stop = iter.Pull(func(park func(struct{}) bool) {
		p.park = park
		defer func() {
			r := recover()
			if p.killed {
				return // reaped: unwind without touching the kernel
			}
			if r != nil {
				p.recordPanic(r)
			}
			p.state = stateDone
			p.finish()
		}()
		p.fn(p)
	})
}

// drive is the trampoline: it resumes p, then the Proc each one names as it
// parks or returns (Proc.to), until one names nobody. Every switch is a
// runtime coroswitch — it stays on this thread and wakes no other.
func drive(p *Proc) {
	for p != nil {
		p.switches++
		p.next()
		p = p.to
	}
}

// block parks p's coroutine, returning the baton to the trampoline, until
// an event names p again. If the engine is returning instead (reap), the
// body unwinds through its deferred calls; Goexit, unlike a panic, cannot
// be swallowed by a recover in the body.
func (p *Proc) block() {
	if !p.park(struct{}{}) {
		runtime.Goexit()
	}
}

// reap marks the kernel finished and unwinds every Proc coroutine still
// parked when the engine returns — daemons blocked in Recv, deadlocked
// Procs, Procs a runaway or panic stopped short or never started — so a
// finished kernel holds no goroutine and everything it references is
// collectable. One at a time: the serial contract covers the bodies'
// deferred calls too. iter.Pull re-raises the coroutine's Goexit in the
// goroutine that called stop, hence a throwaway one per Proc.
func (k *Kernel) reap() {
	k.finished = true
	var wg sync.WaitGroup
	for _, p := range k.procs {
		if p.stop != nil && p.state != stateDone {
			p.killed = true
			wg.Add(1)
			go func() {
				defer wg.Done()
				p.stop()
			}()
			wg.Wait()
		}
	}
}

// Switches reports how many times a trampoline resumed a Proc coroutine:
// the run's user-level goroutine switches. Events that reactivate the
// dispatching Proc itself, or run a handler, cost none.
func (k *Kernel) Switches() int64 {
	var n int64
	for _, p := range k.procs {
		n += p.switches
	}
	return n
}
