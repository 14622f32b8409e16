package pool

import "runtime"

// Each runs f(0), ..., f(n-1) on min(n, GOMAXPROCS) workers of a Pool
// and returns once every call has returned. Calls start in index order
// but may finish in any order, so f must only write state that index i
// owns. If any call panics, Each re-raises the lowest-index panic on the
// caller's goroutine after the other calls have finished, so a caller's
// recover sees it and no worker is left running.
func Each(n int, f func(i int)) {
	if n <= 0 {
		return
	}
	p := NewPool(min(n, runtime.GOMAXPROCS(0)))
	panics := make([]any, n)
	for i := 0; i < n; i++ {
		p.Submit(func() {
			defer func() { panics[i] = recover() }()
			f(i)
		})
	}
	p.Close()
	for _, v := range panics {
		if v != nil {
			panic(v)
		}
	}
}
