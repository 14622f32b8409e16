// Package pool is a bounded worker pool: dsmserve's job queue runs on
// it, and Each fans independent indexed work out over GOMAXPROCS
// workers.
package pool

import "sync"

// Pool is a fixed-size worker pool over a deterministic FIFO job queue:
// jobs start in exactly submission order (with one worker, they also
// finish in submission order). The queue is unbounded — backpressure is
// the caller's concern (the HTTP layer bounds batch sizes) — so Submit
// never blocks behind a slow job.
type Pool struct {
	mu     sync.Mutex
	cond   *sync.Cond
	queue  []func()
	closed bool
	wg     sync.WaitGroup
}

// NewPool starts workers goroutines draining the queue.
func NewPool(workers int) *Pool {
	if workers <= 0 {
		workers = 1
	}
	p := &Pool{}
	p.cond = sync.NewCond(&p.mu)
	p.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go p.worker()
	}
	return p
}

func (p *Pool) worker() {
	defer p.wg.Done()
	for {
		p.mu.Lock()
		for len(p.queue) == 0 && !p.closed {
			p.cond.Wait()
		}
		if len(p.queue) == 0 && p.closed {
			p.mu.Unlock()
			return
		}
		job := p.queue[0]
		p.queue = p.queue[1:]
		p.mu.Unlock()
		job()
	}
}

// Submit enqueues a job. It reports false (and drops the job) after
// Close — callers must resolve their own futures in that case.
func (p *Pool) Submit(job func()) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return false
	}
	p.queue = append(p.queue, job)
	p.cond.Signal()
	return true
}

// Depth returns the number of queued (not yet started) jobs.
func (p *Pool) Depth() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.queue)
}

// Close drains the queue and stops the workers: already-submitted jobs
// run to completion, new submissions are rejected, and Close returns
// once every worker has exited.
func (p *Pool) Close() {
	p.mu.Lock()
	p.closed = true
	p.cond.Broadcast()
	p.mu.Unlock()
	p.wg.Wait()
}
