package rt_test

import (
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"presto/internal/rt"
	"presto/internal/sim"
)

// TestFinishedMachineIsCollectable: however Run ends, the machine holds no
// goroutine afterwards and the garbage collector can take it — a
// long-lived process (dsmserve, a figure loop) does not grow by one machine
// per run. The machine is a cyclic structure, which a finalizer would pin;
// the canary is a leaf only the machine's compute processors reference.
func TestFinishedMachineIsCollectable(t *testing.T) {
	outcomes := []struct {
		name  string
		cfg   func(*rt.Config)
		prog  func(next rt.Program) rt.Program
		check func(t *testing.T, err error, panicked any)
	}{
		{"ok", nil, nil, func(t *testing.T, err error, panicked any) {
			if err != nil || panicked != nil {
				t.Errorf("err %v, panic %v", err, panicked)
			}
		}},
		{"deadlock", nil, func(next rt.Program) rt.Program {
			return func(w *rt.Worker) {
				if w.ID != 0 {
					next(w) // node 0 never joins the first barrier
				}
			}
		}, func(t *testing.T, err error, _ any) {
			var de *sim.DeadlockError
			if !errors.As(err, &de) {
				t.Errorf("want a DeadlockError, got %v", err)
			}
		}},
		{"runaway", func(c *rt.Config) { c.MaxEvents = 40 }, nil, func(t *testing.T, err error, _ any) {
			var re *sim.RunawayError
			if !errors.As(err, &re) {
				t.Errorf("want a RunawayError, got %v", err)
			}
		}},
		{"panic", nil, func(next rt.Program) rt.Program {
			return func(w *rt.Worker) {
				if w.ID == 2 {
					w.Compute(150 * sim.Microsecond) // the others are mid-exchange
					panic("boom")
				}
				next(w)
			}
		}, func(t *testing.T, _ error, panicked any) {
			if panicked != "boom" {
				t.Errorf("want panic boom, got %v", panicked)
			}
		}},
	}
	engines := []struct {
		name string
		cfg  rt.Config
	}{
		{"serial", rt.Config{}},
		{"parallel1", rt.Config{Engine: rt.EngineParallel, Workers: 1}},
		{"parallel2", rt.Config{Engine: rt.EngineParallel, Workers: 2}},
	}
	for _, o := range outcomes {
		for _, e := range engines {
			t.Run(o.name+"/"+e.name, func(t *testing.T) {
				base := runtime.NumGoroutine()
				var collected atomic.Bool
				func() {
					cfg := e.cfg
					cfg.Nodes, cfg.BlockSize = 4, 32
					if o.cfg != nil {
						o.cfg(&cfg)
					}
					m := rt.New(cfg)
					prog := neighborProg(m, 4)
					if o.prog != nil {
						prog = o.prog(prog)
					}
					canary := new([64]byte)
					runtime.SetFinalizer(canary, func(*[64]byte) { collected.Store(true) })
					body := prog
					prog = func(w *rt.Worker) {
						canary[w.ID]++
						body(w)
					}
					var err error
					panicked := func() (r any) {
						defer func() { r = recover() }()
						err = m.Run(prog)
						return nil
					}()
					o.check(t, err, panicked)
				}()
				deadline := time.Now().Add(5 * time.Second)
				for runtime.NumGoroutine() > base { // released goroutines take a moment to exit
					if time.Now().After(deadline) {
						t.Fatalf("%d goroutines after Run, %d before", runtime.NumGoroutine(), base)
					}
					time.Sleep(time.Millisecond)
				}
				for !collected.Load() {
					if time.Now().After(deadline) {
						t.Fatal("the finished machine is still reachable")
					}
					runtime.GC()
					time.Sleep(time.Millisecond)
				}
			})
		}
	}
}
