package pool

import (
	"sync"
	"testing"
)

func TestPoolFIFOSingleWorker(t *testing.T) {
	p := NewPool(1)
	var mu sync.Mutex
	var order []int
	var wg sync.WaitGroup
	for i := 0; i < 50; i++ {
		i := i
		wg.Add(1)
		p.Submit(func() {
			defer wg.Done()
			mu.Lock()
			order = append(order, i)
			mu.Unlock()
		})
	}
	wg.Wait()
	p.Close()
	for i, got := range order {
		if got != i {
			t.Fatalf("job %d ran at position %d — single-worker pool must be FIFO", got, i)
		}
	}
}

func TestPoolCloseDrainsQueue(t *testing.T) {
	p := NewPool(2)
	var mu sync.Mutex
	ran := 0
	for i := 0; i < 20; i++ {
		if !p.Submit(func() {
			mu.Lock()
			ran++
			mu.Unlock()
		}) {
			t.Fatal("Submit refused before Close")
		}
	}
	p.Close() // must block until every queued job has run
	if ran != 20 {
		t.Fatalf("Close returned with %d/20 jobs run", ran)
	}
	if p.Submit(func() {}) {
		t.Fatal("Submit accepted after Close")
	}
	if p.Depth() != 0 {
		t.Fatalf("depth %d after drain", p.Depth())
	}
}
