package predict

import (
	"presto/internal/network"
	"presto/internal/rt"
	"presto/internal/sim"
)

// Synthetic builds a deterministic calibration without running a
// simulation — benchmark and test scaffolding for the predictor's hot
// path (kernelbench predict_sweep256). The tables are plausible rather
// than measured: a producer/consumer fault pattern whose counts shrink
// with block size, plus fixed attribution buckets. nodes must not exceed
// MaxNodes.
func Synthetic(nodes, phases int) *Calibration {
	c := &Calibration{
		App:       "synthetic",
		Protocol:  string(rt.ProtoStache),
		Nodes:     nodes,
		BlockSize: 32,
		Net:       network.CM5(),
	}
	rng := uint64(0x9e3779b97f4a7c15)
	next := func(n int) int {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		return int(rng % uint64(n))
	}

	np := phases + 1 // phase -1 plus the named phases
	c.phases = make([]phaseCal, np)
	faultHome := make([][]int64, MaxShift+1)
	for k := 0; k <= MaxShift; k++ {
		c.shifts[k].faults = make([]float64, np*nodes)
		faultHome[k] = make([]int64, np*nodes*nodes)
		c.shifts[k].stallq = make([]float64, np*nodes)
		c.shifts[k].imb = make([]float64, np)
	}
	for pi := range c.phases {
		ph := &c.phases[pi]
		ph.id = pi - 1
		ph.name = "synthetic"
		ph.nodes = make([]nodeCal, nodes)
		for n := 0; n < nodes; n++ {
			nc := &ph.nodes[n]
			faults := int64(200 + next(400))
			home := (n + 1 + next(nodes-1)) % nodes
			lam := lambda(c.Net, c.BlockSize, n, home)
			nc.compute = float64(1_000_000 + next(500_000))
			nc.stall = float64(faults) * lam
			nc.transit = float64(faults) * tau(c.Net, c.BlockSize, n, home)
			nc.occupancy = float64(faults) * float64(c.Net.FaultDetect+c.Net.SendCost(0))
			nc.service = float64(faults) * float64(c.Net.RecvOverhead)
			nc.barrier = float64(50_000 + next(50_000))
			nc.presend = float64(20_000 + next(20_000))
			nc.busy0 = nc.compute + nc.stall + nc.transit + nc.occupancy +
				nc.service + nc.presend
			idle := float64(next(100_000))
			if t := nc.busy0 + nc.barrier + idle; t > ph.span0 {
				ph.span0 = t
			}
			if nc.busy0 > ph.busyCrit0 {
				ph.busyCrit0 = nc.busy0
			}
			// Fault counts halve per shift until a floor: spatial
			// locality with a residual conflicted fraction.
			f := faults
			for k := 0; k <= MaxShift; k++ {
				c.shifts[k].faults[pi*nodes+n] = float64(f)
				faultHome[k][(pi*nodes+n)*nodes+home] = f
				c.shifts[k].stallq[pi*nodes+n] = float64(f) * lam
				c.shifts[k].reads += float64(f * 3 / 4)
				c.shifts[k].writes += float64(f - f*3/4)
				c.shifts[k].presends += float64(f / 8)
				if f > 32 {
					f = f/2 + 16
				}
			}
		}
		// Imbalance slack shrinks with block size alongside the faults.
		imb := 400_000.0
		for k := 0; k <= MaxShift; k++ {
			c.shifts[k].imb[pi] = imb
			if imb > 50_000 {
				imb = imb/2 + 25_000
			}
		}
		c.sumSpan0 += ph.span0
	}
	c.setHomes(faultHome)

	var e float64
	for pi := range c.phases {
		e += c.phases[pi].span0
	}
	c.ElapsedNS = int64(e)
	c.bd0 = rt.Breakdown{
		Elapsed:    sim.Time(c.ElapsedNS),
		Compute:    sim.Time(c.ElapsedNS / 2),
		RemoteWait: sim.Time(c.ElapsedNS / 4),
		Presend:    sim.Time(c.ElapsedNS / 16),
		Sync:       sim.Time(c.ElapsedNS / 8),
	}
	c.ct0 = rt.Counters{
		ReadFaults:   int64(c.shifts[0].reads),
		WriteFaults:  int64(c.shifts[0].writes),
		MsgsSent:     int64(c.shifts[0].reads+c.shifts[0].writes) * 2,
		BytesSent:    int64(c.shifts[0].reads+c.shifts[0].writes) * int64(2*c.Net.HeaderBytes+c.BlockSize),
		PresendsSent: int64(c.shifts[0].presends),
	}
	return c
}
