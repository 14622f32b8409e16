package sim

// A Choice is one pending event a chooser may dispatch next: the delivery
// of Msg from From to To or, when Msg is nil, a wake of To (its Sleep
// expiring or its barrier releasing).
type Choice struct {
	To, From *Proc
	Msg      any
}

// Choose replaces time order with the caller's pick, for an explicit-state
// explorer that drives real Procs through every order an unordered
// network allows (internal/check). At every step the serial engine
// dispatches the pending event pick names: pick gets the choosable events
// in posting order and returns an index, or -1 to end the run there (Run
// then returns as though the queue had drained). Spawn resumes are never
// offered; they run first, in spawn order, as in time order (handler.go
// relies on it). Clocks still advance per Proc, but order nothing. Call
// Choose before any Proc is spawned; UseScheduler keeps the choice.
func (k *Kernel) Choose(pick func([]Choice) int) {
	if k.started || k.seq != 0 {
		panic("sim: Choose after events were scheduled")
	}
	k.sched = &choiceSched{pick: pick, next: -1}
}

// choiceSched is the scheduler Choose installs. The pick for the next pop
// is made by the len call that opens each dispatch step.
type choiceSched struct {
	pick    func([]Choice) int
	ev      []*event // pending, in posting order
	next    int      // index pop returns; -1 until picked
	stopped bool
}

func (s *choiceSched) push(e *event)         { s.ev = append(s.ev, e) }
func (s *choiceSched) pushBatch(es []*event) { s.ev = append(s.ev, es...) }

func (s *choiceSched) len() int {
	if s.next < 0 && !s.stopped && len(s.ev) > 0 {
		s.choose()
	}
	if s.stopped {
		return 0
	}
	return len(s.ev)
}

func (s *choiceSched) choose() {
	cs := make([]Choice, len(s.ev))
	for i, e := range s.ev {
		if e.kind == evResume && e.from == nil {
			s.next = i // a spawn resume
			return
		}
		cs[i] = Choice{To: e.proc, From: e.from, Msg: e.msg}
	}
	s.next = s.pick(cs)
	s.stopped = s.next < 0
}

func (s *choiceSched) peek() *event {
	if s.len() == 0 {
		return nil
	}
	return s.ev[s.next]
}

func (s *choiceSched) pop() *event {
	e := s.peek()
	if e == nil {
		panic("sim: pop from empty scheduler")
	}
	s.ev = append(s.ev[:s.next], s.ev[s.next+1:]...)
	s.next = -1
	return e
}

func (s *choiceSched) popBefore(Time) *event {
	panic("sim: a chosen schedule runs under the serial engine only")
}
