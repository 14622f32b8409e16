package rt

import (
	"fmt"
	"sort"

	"presto/internal/causal"
	"presto/internal/sim"
	"presto/internal/trace"
)

// nodeProf holds one node's attribution slots: the compute processor's
// time split per parallel phase (outside = between phases), plus the
// protocol processor's own timeline. Slots are written by the node's
// processors, which share a lane under the parallel engine, so no
// synchronization is needed.
type nodeProf struct {
	outside sim.AttrSlot
	phases  map[int]*sim.AttrSlot
	proto   sim.AttrSlot
}

// slot returns the attribution slot for phase id (-1 = outside any
// phase), creating per-phase slots on first use. Installed as the node's
// Prof callback.
func (np *nodeProf) slot(id int) *sim.AttrSlot {
	if id < 0 {
		return &np.outside
	}
	s := np.phases[id]
	if s == nil {
		if np.phases == nil {
			np.phases = make(map[int]*sim.AttrSlot)
		}
		s = new(sim.AttrSlot)
		np.phases[id] = s
	}
	return s
}

// Profile assembles the causal profile after a run with Cfg.Profile on:
// per-node exact time attribution (per phase), the critical path walked
// backward from the last-finishing compute processor, and — under the
// parallel engine — the engine's flight data. The app name is recorded
// in the artifact.
func (m *Machine) Profile(app string) (*causal.Profile, error) {
	if !m.ran {
		return nil, fmt.Errorf("rt: Profile before Run")
	}
	if m.prof == nil {
		return nil, fmt.Errorf("rt: profiling was not enabled (Config.Profile)")
	}
	p := &causal.Profile{
		Schema:    causal.SchemaVersion,
		App:       app,
		Protocol:  string(m.Cfg.Protocol),
		Nodes:     m.Cfg.Nodes,
		BlockSize: m.Cfg.BlockSize,
		Engine:    string(m.Cfg.Engine),
		ElapsedNS: int64(m.Elapsed()),
	}
	for i, np := range m.prof {
		n := causal.NodeProfile{
			Node:         i,
			TotalNS:      int64(m.Nodes[i].Compute.Now()),
			ProtoTotalNS: int64(m.Nodes[i].ProtoProc.Now()),
			Proto:        causal.FromSlot(&np.proto),
		}
		n.Phases = append(n.Phases, causal.PhaseAttr{
			Phase: -1, Name: "(outside)", Buckets: causal.FromSlot(&np.outside),
		})
		ids := make([]int, 0, len(np.phases))
		for id := range np.phases {
			ids = append(ids, id)
		}
		sort.Ints(ids)
		for _, id := range ids {
			n.Phases = append(n.Phases, causal.PhaseAttr{
				Phase: id, Name: m.PhaseName(id), Buckets: causal.FromSlot(np.phases[id]),
			})
		}
		for _, ph := range n.Phases {
			n.Buckets.Add(ph.Buckets)
		}
		p.PerNode = append(p.PerNode, n)
	}
	// Critical path: walk backward from the compute processor that
	// defines Elapsed (the last to finish; lowest node wins ties, which
	// is deterministic).
	last := 0
	for i, e := range m.ends {
		if e > m.ends[last] {
			last = i
		}
	}
	path, err := causal.ComputePath(m.Kernel, m.Nodes[last].Compute.ID(), m.Elapsed())
	if err != nil {
		return nil, err
	}
	p.Path = causal.PathProfileOf(path, 40)
	if f := m.Kernel.EngineFlightRecord(); f != nil {
		hist := f.EventHist[:]
		for len(hist) > 0 && hist[len(hist)-1] == 0 {
			hist = hist[:len(hist)-1]
		}
		p.Flight = &causal.EngineProfile{
			Workers:       m.workers,
			Lanes:         m.lanes,
			LookaheadNS:   int64(m.lookahead),
			Windows:       f.Windows,
			Events:        f.Events,
			SoloWindows:   f.SoloWindows,
			MergedWindows: f.MergedWindows,
			Steals:        f.Steals,
			LaneHist:      append([]int64(nil), f.LaneHist...),
			EventHist:     append([]int64(nil), hist...),
			OpenWallNS:    f.OpenNS,
			ExecWallNS:    f.ExecNS,
			CommitWallNS:  f.CommitNS,
		}
	}
	return p, nil
}

// CriticalPath recomputes the full critical path (Profile keeps only a
// condensed form). Used by the Chrome trace overlay.
func (m *Machine) CriticalPath() (causal.Path, error) {
	if !m.ran {
		return causal.Path{}, fmt.Errorf("rt: CriticalPath before Run")
	}
	last := 0
	for i, e := range m.ends {
		if e > m.ends[last] {
			last = i
		}
	}
	return causal.ComputePath(m.Kernel, m.Nodes[last].Compute.ID(), m.Elapsed())
}

// PathOverlay converts a critical path into the Chrome trace sink's
// overlay form (trace.Chrome.SetCriticalPath).
func PathOverlay(p causal.Path) []trace.PathSeg {
	out := make([]trace.PathSeg, len(p.Segments))
	for i, s := range p.Segments {
		out[i] = trace.PathSeg{
			Name: s.Name, Kind: s.Kind,
			Start: int64(s.Start), End: int64(s.End),
		}
	}
	return out
}
