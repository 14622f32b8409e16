// Package predict is the analytical fast path: it turns one recorded
// calibration simulation per (program, protocol) pair into elapsed-time
// and breakdown predictions across block sizes, node counts and network
// presets — no event simulation (ROADMAP item 4, after PPT-Multicore).
//
// A calibration run executes with both the causal profiler
// (rt.Config.Profile) and the communication recorder (rt.Config.Record,
// which slices each node's accesses into (phase, iteration) episodes as
// it records them) enabled. Calibrate replays the slices in place into
// per-(phase, node) attribution buckets plus conflict-aware
// per-block-size fault and pre-send counts;
// Predict then rescales each bucket by analytically derived cost ratios
// and recombines per-phase critical spans into an elapsed-time estimate.
// The model is exact at the calibration point — predicting the
// calibration configuration reproduces its elapsed time, breakdown and
// counters bit for bit — and stays within the validated error band
// (DESIGN.md §13) across the figure 5-7 sweeps and chaos seed bands.
package predict

import (
	"errors"
	"fmt"

	"presto/internal/network"
	"presto/internal/rt"
	"presto/internal/sim"
)

// MaxShift bounds block-size extrapolation: targets may use any block
// size from the calibration size B0 up to B0<<MaxShift.
const MaxShift = 6

// MaxNodes bounds the calibration run's node count: the replay keeps
// each block's sharer sets as 64-bit node masks. Targets may use any
// node count.
const MaxNodes = 64

// Target names one configuration to predict. Zero fields mean "as
// calibrated".
type Target struct {
	// BlockSize must be the calibration block size shifted left by at
	// most MaxShift (the fault-coarsening tables are per power of two).
	BlockSize int
	// Net overrides the interconnect (any preset, flat or cluster:GxC).
	Net *network.Params
	// Nodes overrides the node count. The communication schedule keeps
	// the calibration decomposition; compute is conserved and pair
	// latencies use a virtual-to-physical node mapping, so node-count
	// extrapolation is coarser than the block-size and network axes.
	Nodes int
}

// Prediction is one extrapolated configuration: the same quantities a
// simulation reports, without running one.
type Prediction struct {
	ElapsedNS int64
	Breakdown rt.Breakdown
	Counters  rt.Counters
}

// PhaseForecast is one parallel phase's predicted contribution.
type PhaseForecast struct {
	Phase  int
	Name   string
	SpanNS int64 // predicted critical span of the phase
}

// Errors returned by Predict for malformed targets.
var (
	ErrBlockSize = errors.New("predict: target block size is not the calibration size shifted by 0..MaxShift")
	ErrNodes     = errors.New("predict: target node count must be positive")
)

// nodeCal is one (phase, node) slot of the calibration: the causal
// buckets plus target-independent denominators for the ratio model.
type nodeCal struct {
	compute, transit, occupancy, service float64
	barrier, stall, presend              float64
	busy0                                float64 // bucket sum excluding barrier and idle
	tau0                                 float64 // Σ_h hist0[h]·τ(cal net, B0, n, h)
}

// phaseCal is one parallel phase of the calibration. A phase's span
// decomposes into the critical node's busy time plus synchronization
// slack (barrier wait + release + idle) that the remaining nodes absorb.
type phaseCal struct {
	id        int
	name      string
	span0     float64 // max over nodes of the phase's total time (incl idle)
	busyCrit0 float64 // max over nodes of busy time
	nodes     []nodeCal
}

// shiftCal holds the conflict-aware fault and pre-send counts for one
// block-size shift k (block size B0<<k), flattened for cache locality.
type shiftCal struct {
	faults []float64 // [phase*N0+n] weighted fault count
	// Fault counts by serving home as compressed rows: row phase*N0+n
	// holds its non-zero entries [rowAt[row], rowAt[row+1]) of home and
	// count, in ascending home order.
	rowAt    []int32
	home     []int32
	count    []float64
	lamK0    []float64 // [phase*N0+n] Σ_h count·λ(cal net, B0<<k, n, h)
	imb      []float64 // [phase] replayed imbalance slack (cal-net units)
	stallq   []float64 // [phase*nodes+node] replayed stall incl. queuing
	reads    float64   // machine-wide read faults
	writes   float64   // machine-wide write faults
	presends float64   // machine-wide pre-send arrivals
}

// Calibration is the distilled calibration run. Build one with
// Calibrate (or Synthetic for benchmarks); Predict is allocation-free,
// so a single calibration answers thousand-configuration sweeps in
// microseconds each.
type Calibration struct {
	App       string
	Protocol  string
	Nodes     int // N0
	BlockSize int // B0
	Net       *network.Params
	ElapsedNS int64

	bd0      rt.Breakdown
	ct0      rt.Counters
	sumSpan0 float64
	phases   []phaseCal
	shifts   [MaxShift + 1]shiftCal
}

// lambda is the model's per-fault miss latency: a two-hop request/reply
// between faulter n and home h (pair-aware, so cluster targets see the
// intra-group fabric when both ends share a group).
func lambda(p *network.Params, block, n, h int) float64 {
	return float64(p.FaultDetect + p.SendCost(0) + p.TransitDelayPair(0, n, h) +
		p.RecvOverhead + p.SendCost(block) + p.TransitDelayPair(block, h, n) + p.RecvOverhead)
}

// tau is the in-flight portion of the reply (the transit bucket's unit
// cost).
func tau(p *network.Params, block, n, h int) float64 {
	return float64(p.TransitDelayPair(block, h, n))
}

// scale returns v rescaled by num/den, keeping v when the denominator
// vanishes. The division happens first so that num==den yields exactly
// v — the identity-exactness guarantee rides on this.
func scale(v, num, den float64) float64 {
	if den == 0 {
		return v
	}
	return v * (num / den)
}

// shiftOf maps a target block size to its shift index.
func (c *Calibration) shiftOf(bs int) (int, error) {
	if bs == 0 {
		return 0, nil
	}
	for k := 0; k <= MaxShift; k++ {
		if c.BlockSize<<k == bs {
			return k, nil
		}
	}
	return 0, ErrBlockSize
}

// Predict extrapolates the calibration to the target configuration.
// It allocates nothing: sweeping thousands of targets reuses the same
// calibration tables.
func (c *Calibration) Predict(t Target) (Prediction, error) {
	k, err := c.shiftOf(t.BlockSize)
	if err != nil {
		return Prediction{}, err
	}
	net := t.Net
	if net == nil {
		net = c.Net
	}
	n1 := t.Nodes
	if n1 == 0 {
		n1 = c.Nodes
	}
	if n1 <= 0 {
		return Prediction{}, ErrNodes
	}
	return c.predict(k, net, n1, nil), nil
}

// Phases returns the per-phase span forecast for a target (the
// figure-style per-phase view; allocates the result slice).
func (c *Calibration) Phases(t Target) ([]PhaseForecast, error) {
	k, err := c.shiftOf(t.BlockSize)
	if err != nil {
		return nil, err
	}
	net := t.Net
	if net == nil {
		net = c.Net
	}
	n1 := t.Nodes
	if n1 == 0 {
		n1 = c.Nodes
	}
	if n1 <= 0 {
		return nil, ErrNodes
	}
	out := make([]PhaseForecast, len(c.phases))
	c.predict(k, net, n1, out)
	return out, nil
}

// predict is the model core. out, when non-nil, receives one
// PhaseForecast per calibration phase.
func (c *Calibration) predict(k int, net *network.Params, n1 int, out []PhaseForecast) Prediction {
	n0 := c.Nodes
	b1 := c.BlockSize << k
	sc := &c.shifts[k]
	s0 := &c.shifts[0]
	var pos [MaxNodes]int // virtual node -> physical position
	for i := 0; i < n0; i++ {
		pos[i] = i * n1 / n0
	}
	// λ's target-independent hops; only the two transits vary per pair.
	lamFixed := net.FaultDetect + net.SendCost(0) + 2*net.RecvOverhead + net.SendCost(b1)

	// Machine-wide unit-cost ratios (target cost over calibration cost).
	occR := ratio(float64(net.FaultDetect+net.SendCost(0)), float64(c.Net.FaultDetect+c.Net.SendCost(0)))
	svcR := ratio(float64(net.RecvOverhead), float64(c.Net.RecvOverhead))
	psCostR := ratio(float64(net.SendCost(b1)), float64(c.Net.SendCost(c.BlockSize)))
	psCntR := ratio(sc.presends, s0.presends)
	compR := float64(n0) / float64(n1)

	var sumSpanT, slackT, slack0 float64
	var gRW0, gRWT, gPS0, gPST float64
	for pi := range c.phases {
		ph := &c.phases[pi]
		var critT, phLamT, phLamK0 float64
		var phStallT, phStall0 float64
		for n := 0; n < n0; n++ {
			nc := &ph.nodes[n]
			pn := pos[n]
			// Home-weighted per-fault latency and transit numerators at
			// the target shift's fault distribution; lamK0, the same sum
			// under the calibration network, isolates the network's cost
			// ratio from the fault-count change. Each term is exactly
			// w·λ and w·τ, summed in ascending home order.
			row := pi*n0 + n
			var lamT, tauT float64
			for j := sc.rowAt[row]; j < sc.rowAt[row+1]; j++ {
				w, phh := sc.count[j], pos[sc.home[j]]
				tr := net.TransitDelayPair(b1, phh, pn)
				lamT += w * float64(lamFixed+net.TransitDelayPair(0, pn, phh)+tr)
				tauT += w * float64(tr)
			}
			lamK0 := sc.lamK0[row]
			phLamT += lamT
			phLamK0 += lamK0
			fK := sc.faults[row]
			f0 := s0.faults[row]

			computeT := nc.compute * compR
			// Stall scales with the replay's charged wait (miss round
			// trips plus queuing behind in-flight transfers), carried to
			// the target network by the per-fault cost-mix ratio.
			stallT := scale(nc.stall, sc.stallq[row]*ratio(lamT, lamK0), s0.stallq[row])
			transitT := scale(nc.transit, tauT, nc.tau0)
			occT := scale(nc.occupancy, fK, f0) * occR
			serviceT := scale(nc.service, fK, f0) * svcR
			presendT := nc.presend * psCntR * psCostR

			phStallT += stallT
			phStall0 += nc.stall
			busyT := computeT + stallT + transitT + occT + serviceT + presendT
			if busyT > critT {
				critT = busyT
			}
			gRW0 += nc.stall + nc.occupancy + nc.transit
			gRWT += stallT + occT + transitT
			gPS0 += nc.presend
			gPST += presendT
		}
		// Phase span: the critical node's busy time plus synchronization
		// slack (straggler wait plus barrier cost). The replay explains
		// the alternating-straggler part of the slack — its cross-shift
		// delta (network-rescaled) adjusts that share directly. The
		// remainder (barrier latency, stall variance the reconstruction
		// cannot see) is assumed to track the phase's total stall volume
		// and scales with the stall ratio.
		slack0ph := ph.span0 - ph.busyCrit0
		if slack0ph < 0 {
			slack0ph = 0
		}
		netR := ratio(phLamT, phLamK0)
		replAdj := (sc.imb[pi] - s0.imb[pi]) * netR
		w := 0.0
		if slack0ph > 0 && s0.imb[pi] > 0 {
			w = s0.imb[pi] / slack0ph
			if w > 1 {
				w = 1
				replAdj = slack0ph * (sc.imb[pi]/s0.imb[pi] - 1) * netR
			}
		}
		slackTph := slack0ph*netR + replAdj +
			(1-w)*slack0ph*(ratio(phStallT, phStall0)-netR)
		if slackTph < 0 {
			slackTph = 0
		}
		spanT := critT + slackTph
		sumSpanT += spanT
		slackT += slackTph
		slack0 += slack0ph
		if out != nil {
			out[pi] = PhaseForecast{Phase: ph.id, Name: ph.name, SpanNS: round(spanT)}
		}
	}

	elapsed := scale(float64(c.ElapsedNS), sumSpanT, c.sumSpan0)

	var p Prediction
	p.ElapsedNS = round(elapsed)
	p.Breakdown = rt.Breakdown{
		Elapsed:    sim.Time(p.ElapsedNS),
		Compute:    sim.Time(round(float64(c.bd0.Compute) * compR)),
		RemoteWait: sim.Time(round(scale(float64(c.bd0.RemoteWait), gRWT, gRW0))),
		Presend:    sim.Time(round(scale(float64(c.bd0.Presend), gPST, gPS0))),
		Sync:       sim.Time(round(scale(float64(c.bd0.Sync), slackT, slack0))),
	}

	readR := ratio(sc.reads, s0.reads)
	writeR := ratio(sc.writes, s0.writes)
	actR := ratio(sc.reads+sc.writes+sc.presends, s0.reads+s0.writes+s0.presends)
	msgs := round(float64(c.ct0.MsgsSent) * actR)
	hdr0 := float64(c.ct0.MsgsSent) * float64(c.Net.HeaderBytes)
	payload0 := float64(c.ct0.BytesSent) - hdr0
	if payload0 < 0 {
		payload0 = 0
	}
	p.Counters = rt.Counters{
		ReadFaults:      round(float64(c.ct0.ReadFaults) * readR),
		WriteFaults:     round(float64(c.ct0.WriteFaults) * writeR),
		MsgsSent:        msgs,
		BytesSent:       round(payload0*actR*float64(int64(1)<<k)) + msgs*int64(net.HeaderBytes),
		PresendsSent:    round(float64(c.ct0.PresendsSent) * psCntR),
		PresendsSkipped: round(float64(c.ct0.PresendsSkipped) * psCntR),
		BulkMsgs:        round(float64(c.ct0.BulkMsgs) * psCntR),
		Conflicts:       round(float64(c.ct0.Conflicts) * actR),
		// Topology-dependent traffic counters scale with overall message
		// activity: the cross-group fraction and the aggregation rate are
		// properties of the communication pattern and the interconnect
		// shape, both of which calibration holds fixed.
		CrossMsgs:     round(float64(c.ct0.CrossMsgs) * actR),
		AggMsgs:       round(float64(c.ct0.AggMsgs) * actR),
		AggEntriesOut: round(float64(c.ct0.AggEntriesOut) * actR),
		AggEntriesIn:  round(float64(c.ct0.AggEntriesIn) * actR),
	}
	return p
}

// ratio returns num/den, or 1 when the denominator vanishes (an absent
// cost component keeps its calibration weight of zero anyway).
func ratio(num, den float64) float64 {
	if den == 0 {
		return 1
	}
	return num / den
}

// round converts a non-negative model value to int64 nanoseconds/counts.
func round(v float64) int64 {
	if v <= 0 {
		return 0
	}
	return int64(v + 0.5)
}

// String summarizes the calibration.
func (c *Calibration) String() string {
	return fmt.Sprintf("predict: %s/%s calibrated at %d nodes, %dB blocks, %d phases",
		c.App, c.Protocol, c.Nodes, c.BlockSize, len(c.phases))
}
