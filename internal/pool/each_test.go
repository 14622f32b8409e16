package pool

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestEachRunsEveryIndexOnce covers n below, at and above GOMAXPROCS, and
// checks that no more than GOMAXPROCS calls ever run at once.
func TestEachRunsEveryIndexOnce(t *testing.T) {
	procs := runtime.GOMAXPROCS(0)
	for _, n := range []int{1, procs, procs + 1, 4*procs + 3} {
		runs := make([]int32, n)
		var mu sync.Mutex
		live, peak := 0, 0
		Each(n, func(i int) {
			mu.Lock()
			live++
			peak = max(peak, live)
			mu.Unlock()
			atomic.AddInt32(&runs[i], 1)
			time.Sleep(time.Millisecond)
			mu.Lock()
			live--
			mu.Unlock()
		})
		for i, r := range runs {
			if r != 1 {
				t.Fatalf("n=%d: f(%d) ran %d times, want once", n, i, r)
			}
		}
		if peak > min(n, procs) {
			t.Fatalf("n=%d: %d calls ran at once, want at most min(n, GOMAXPROCS)=%d", n, peak, min(n, procs))
		}
	}
}

func TestEachZero(t *testing.T) {
	Each(0, func(int) { t.Fatal("f called for n == 0") })
}

// TestEachSerialUnderOneProc: with GOMAXPROCS 1 there is one worker, so
// the calls run one after another in index order.
func TestEachSerialUnderOneProc(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var mu sync.Mutex
	var order []int
	Each(9, func(i int) {
		mu.Lock()
		order = append(order, i)
		mu.Unlock()
	})
	for i, got := range order {
		if got != i {
			t.Fatalf("call %d ran at position %d under GOMAXPROCS 1", got, i)
		}
	}
}

// TestEachPanicReraisedOnCaller: a panic in f(3) of 7 reaches the
// caller's recover, every other index still runs, and no worker
// goroutine outlives Each.
func TestEachPanicReraisedOnCaller(t *testing.T) {
	base := runtime.NumGoroutine()
	var ran [7]atomic.Bool
	got := func() (r any) {
		defer func() { r = recover() }()
		Each(7, func(i int) {
			ran[i].Store(true)
			if i == 3 {
				panic("boom 3")
			}
			if i == 5 {
				panic("boom 5")
			}
		})
		return nil
	}()
	if got != "boom 3" {
		t.Fatalf("recovered %v, want the lowest-index panic \"boom 3\"", got)
	}
	for i := range ran {
		if !ran[i].Load() {
			t.Fatalf("f(%d) never ran", i)
		}
	}
	// A worker calls wg.Done on its way out, so it may still be counted
	// for a moment after Close returns.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after Each, %d before", runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}
