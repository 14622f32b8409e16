package main

import (
	"flag"
	"fmt"
	"strings"
	"testing"
	"time"

	"presto/internal/chaos"
	"presto/internal/kernelbench"
	"presto/internal/memory"
	"presto/internal/network"
	"presto/internal/predict"
	"presto/internal/rt"
	"presto/internal/serve"
)

// driver measures one layer in isolation by calling its public functions at
// the shape the owning workload uses them. A driver's number explains an
// end-to-end number; it is never a result by itself.
type driver struct {
	metric, unit string
	// run returns the median over its samples, in unit.
	run func(smoke bool) (float64, error)
}

const driverSamples = 11

// sink keeps the compiler from discarding the drivers' loads.
var sink float64

// samplesOf shrinks a driver to a few tiny samples for -smoke.
func samplesOf(smoke bool, n int) (samples, ops int) {
	if smoke {
		return 3, max(n/100, 1)
	}
	return driverSamples, n
}

// medianNS calls fn(n) once per sample and returns the median nanoseconds
// per operation.
func medianNS(smoke bool, n int, fn func(n int)) float64 {
	samples, n := samplesOf(smoke, n)
	v := make([]float64, samples)
	for i := range v {
		t := time.Now()
		fn(n)
		v[i] = float64(time.Since(t).Nanoseconds()) / float64(n)
	}
	return median(v)
}

// nsDriver is a driver whose body has no set-up to exclude.
func nsDriver(metric string, n int, setup func() func(n int)) driver {
	return driver{metric, "ns", func(smoke bool) (float64, error) {
		return medianNS(smoke, n, setup()), nil
	}}
}

// kernelCase reuses a kernelbench case (the sim and blockstate hot paths
// the repository already defines) through testing.Benchmark at a fixed n.
func kernelCase(metric, name string, n int) driver {
	return driver{metric, "ns", func(smoke bool) (float64, error) {
		var bench func(b *testing.B)
		for _, c := range kernelbench.Cases() {
			if c.Name == name {
				bench = c.Bench
			}
		}
		if bench == nil {
			return 0, fmt.Errorf("kernelbench has no case %q", name)
		}
		samples, n := samplesOf(smoke, n)
		testing.Init()
		if err := flag.Set("test.benchtime", fmt.Sprintf("%dx", n)); err != nil {
			return 0, err
		}
		v := make([]float64, samples)
		for i := range v {
			r := testing.Benchmark(bench)
			if r.N == 0 {
				return 0, fmt.Errorf("kernelbench case %q failed", name)
			}
			v[i] = float64(r.T.Nanoseconds()) / float64(r.N)
		}
		return median(v), nil
	}}
}

// homeStore is one node's store over a 64 Ki-word region it is home to,
// every line materialised.
func homeStore(blockSize int) (*memory.Store, *memory.Region) {
	as := memory.NewAddressSpace(1, blockSize)
	r := as.NewRegion("words", 8<<16, func(int64) int { return 0 })
	s := memory.NewStore(as, 0)
	for off := int64(0); off < r.Size; off += int64(blockSize) {
		s.StoreF64(r.Addr(off), 1)
	}
	return s, r
}

// workerHit times shared reads or writes that hit home data, through
// rt.Worker on a one-node machine: the whole access path and no protocol.
func workerHit(metric string, write bool) driver {
	return driver{metric, "ns", func(smoke bool) (float64, error) {
		m := rt.New(rt.Config{Nodes: 1, BlockSize: 32})
		arr := m.NewArray1D("words", 4096, 1, false)
		var ns float64
		err := m.Run(func(w *rt.Worker) {
			ns = medianNS(smoke, 200000, func(n int) {
				for i := 0; i < n; i++ {
					if write {
						w.WriteF64(arr.At(i&4095, 0), 1)
					} else {
						sink += w.ReadF64(arr.At(i&4095, 0))
					}
				}
			})
		})
		return ns, err
	}}
}

// exchange runs a two-node machine whose nodes, iters times over, read each
// other's half of an array of one-block elements and then rewrite their own
// half. Under Stache every read misses; under the predictive protocol the
// blocks are pre-sent from the second iteration on.
func exchange(proto rt.ProtocolKind, blocks, iters int) (time.Duration, rt.Counters, error) {
	m := rt.New(rt.Config{Nodes: 2, BlockSize: 32, Protocol: proto})
	arr := m.NewArray1D("x", blocks, 4, false)
	t := time.Now()
	err := m.Run(func(w *rt.Worker) {
		lo, hi := arr.MyRange(w)
		for it := 0; it < iters; it++ {
			w.Phase(1, func() {
				for i := 0; i < blocks; i++ {
					if i < lo || i >= hi {
						sink += w.ReadF64(arr.At(i, 0))
					}
				}
			})
			w.Phase(2, func() {
				for i := lo; i < hi; i++ {
					w.WriteF64(arr.At(i, 0), float64(it))
				}
			})
		}
	})
	return time.Since(t), m.Counters(), err
}

// exchangeDriver reports the exchange's host time per event counted by per.
func exchangeDriver(metric string, proto rt.ProtocolKind, per func(rt.Counters) int64) driver {
	return driver{metric, "ns", func(smoke bool) (float64, error) {
		samples, blocks := samplesOf(smoke, 1024)
		v := make([]float64, samples)
		for i := range v {
			d, c, err := exchange(proto, blocks+2, 8)
			if err != nil {
				return 0, err
			}
			v[i] = float64(d.Nanoseconds()) / float64(max(per(c), 1))
		}
		return median(v), nil
	}}
}

// machineSetup times the fixed cost of a machine that does no work: rt.New,
// the barnes aggregates, node construction, spawn and exit.
func machineSetup(metric string, nodes int, net string) driver {
	return driver{metric, "ms", func(smoke bool) (float64, error) {
		samples, _ := samplesOf(smoke, 0)
		v := make([]float64, samples)
		for i := range v {
			cfg := rt.Config{Nodes: nodes, BlockSize: 32}
			if net != "" {
				np, err := network.Preset(net)
				if err != nil {
					return 0, err
				}
				cfg.Net, cfg.Aggregate, cfg.Protocol = np, true, rt.ProtoUpdate
			}
			t := time.Now()
			m := rt.New(cfg)
			m.NewArray1D("bodies", 4*nodes, 4, false)
			m.NewArena("cells", int64(nodes)<<12)
			if err := m.Run(func(*rt.Worker) {}); err != nil {
				return 0, err
			}
			v[i] = float64(time.Since(t).Nanoseconds()) / 1e6
		}
		return median(v), nil
	}}
}

// installDriver times Store.Install of blocks the node has never held: the
// allocating path a remote copy takes on arrival.
func installDriver(metric string, blockSize int) driver {
	return nsDriver(metric, 4096, func() func(n int) {
		as := memory.NewAddressSpace(2, blockSize)
		r := as.NewRegion("remote", int64(blockSize)<<12, func(int64) int { return 1 })
		data := make([]byte, blockSize)
		return func(n int) {
			s := memory.NewStore(as, 0)
			for i := 0; i < n; i++ {
				s.Install(r.BlockAt(int64(i)), data, memory.ReadOnly)
			}
		}
	})
}

// accessDrivers belong to barnes32: the shared-access path.
var accessDrivers = []driver{
	nsDriver("memory.load_hit_ns", 200000, func() func(n int) {
		s, r := homeStore(32)
		return func(n int) {
			for i := 0; i < n; i++ {
				v, _ := s.LoadF64(r.Addr(int64(i&1023) * 8))
				sink += v
			}
		}
	}),
	nsDriver("memory.load_stride_ns", 200000, func() func(n int) {
		s, r := homeStore(32)
		return func(n int) {
			for i := 0; i < n; i++ {
				v, _ := s.LoadF64(r.Addr(int64(i&16383) * 32))
				sink += v
			}
		}
	}),
	nsDriver("memory.store_hit_ns", 200000, func() func(n int) {
		s, r := homeStore(32)
		return func(n int) {
			for i := 0; i < n; i++ {
				s.StoreF64(r.Addr(int64(i&1023)*8), 1)
			}
		}
	}),
	workerHit("tempest.read_hit_ns", false),
	workerHit("tempest.write_hit_ns", true),
	exchangeDriver("core.presend_block_ns", rt.ProtoPredictive, func(c rt.Counters) int64 { return c.PresendsSent }),
}

// handlerDrivers belong to adaptive32-stache: faults, handlers, the kernel.
var handlerDrivers = []driver{
	exchangeDriver("stache.remote_read_miss_ns", rt.ProtoStache, func(c rt.Counters) int64 { return c.ReadFaults }),
	kernelCase("sim.send_recv_ns", "send_recv", 20000),
	kernelCase("sim.barrier8_ns", "barrier8", 5000),
	kernelCase("sim.mesh8_serial_ns", "mesh8_serial", 5000),
}

// scaleDrivers belong to kilonode: footprint, scale and the parallel engine.
var scaleDrivers = []driver{
	installDriver("memory.install32_ns", 32),
	installDriver("memory.install1024_ns", 1024),
	machineSetup("rt.setup1024_ms", 1024, "cluster:32x32"),
	kernelCase("sim.barrier1024_release_ns", "barrier1024_release", 50),
	kernelCase("sim.mesh8_parallel4_ns", "mesh8_parallel4", 5000),
	kernelCase("sim.window_commit8_ns", "window_commit8", 5000),
	{"network.transit_pair_ns", "ns", func(smoke bool) (float64, error) {
		np, err := network.Preset("cluster:32x32")
		if err != nil {
			return 0, err
		}
		return medianNS(smoke, 200000, func(n int) {
			for i := 0; i < n; i++ {
				sink += float64(np.TransitDelayPair(64, i&1023, (i*7)&1023))
			}
		}), nil
	}},
}

// harnessDrivers belong to figures-quick, whose 22 small runs each pay the
// machine's fixed cost.
var harnessDrivers = []driver{machineSetup("rt.setup32_ms", 32, "")}

// serveDrivers belong to serve-cold (the warm workload's run reuses its
// numbers: the same service, the other way round).
var serveDrivers = []driver{
	{"chaos.seed_ms", "ms", func(smoke bool) (float64, error) {
		seed := int64(defaultSeed)
		var failed []string
		ns := medianNS(smoke, 10, func(n int) {
			for i := 0; i < n; i++ {
				seed++
				if r := chaos.RunSeed(seed, chaos.Options{}); r.Failed() {
					failed = append(failed, r.Failures...)
				}
			}
		})
		if len(failed) > 0 {
			return 0, fmt.Errorf("chaos.RunSeed: %s", strings.Join(failed, "; "))
		}
		return ns / 1e6, nil
	}},
	{"serve.normalize_hash_us", "us", func(smoke bool) (float64, error) {
		var err error
		ns := medianNS(smoke, 2000, func(n int) {
			for i := 0; i < n; i++ {
				var s serve.Spec
				if s, err = (serve.Spec{Kind: serve.KindChaos, Seed: int64(i)}).Normalize(); err == nil {
					sink += float64(len(s.Hash()))
				}
			}
		})
		return ns / 1e3, err
	}},
	nsDriver("serve.cache_get_ns", 200000, func() func(n int) {
		c, keys := filledCache(1024)
		return func(n int) {
			for i := 0; i < n; i++ {
				line, _ := c.Get(keys[i&1023])
				sink += float64(len(line))
			}
		}
	}),
	// Twice as many keys as fit: every put misses and evicts the oldest line.
	nsDriver("serve.cache_put_ns", 200000, func() func(n int) {
		c, keys := filledCache(2048)
		return func(n int) {
			for i := 0; i < n; i++ {
				c.Put(keys[i&2047], cacheLine)
			}
		}
	}),
}

var cacheLine = make([]byte, 1024)

// filledCache is a result cache with room for 1024 lines of 1 KiB, after
// lines under all of the returned keys were put into it.
func filledCache(keys int) (*serve.Cache, []string) {
	c := serve.NewCache(1024 * int64(len(cacheLine)))
	hashes := make([]string, keys)
	for i := range hashes {
		hashes[i] = (serve.Spec{Kind: serve.KindChaos, Seed: int64(i)}).Hash()
		c.Put(hashes[i], cacheLine)
	}
	return c, hashes
}

// predictDrivers belong to predict-sweep.
var predictDrivers = []driver{
	{"predict.predict_ns", "ns", func(smoke bool) (float64, error) {
		cal := predict.Synthetic(16, 4)
		var err error
		ns := medianNS(smoke, 20000, func(n int) {
			for i := 0; i < n; i++ {
				var pr predict.Prediction
				if pr, err = cal.Predict(predict.Target{BlockSize: 32 << (i % 7), Nodes: 2 + i%36}); err == nil {
					sink += float64(pr.ElapsedNS)
				}
			}
		})
		return ns, err
	}},
}
