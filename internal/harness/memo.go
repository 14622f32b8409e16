package harness

import (
	"encoding/json"
	"slices"
	"sync"

	"presto/internal/rt"
)

// memoRows bounds the row memo, so a long-running dsmserve keeps at most
// this many rows. The rows of figures 5-7 and the sweep fit twice over.
const memoRows = 64

// rowKey is what a simulated figure row is a pure function of: its
// configuration, the scale and the run-wide machine template. The
// template's Sched "" reads as the wheel, and its Net is compared by value
// through its JSON form, because Params holds a slice and equal presets
// are distinct pointers.
type rowKey struct {
	run     figRun
	scale   Scale
	machine rt.Config
	net     string
}

// rowMemo keeps finished figure rows process-wide, so a configuration
// simulates once however many experiments show it: sweep repeats six of
// figure 7's rows, predict-error all of figures 5-7. It holds Row data
// only, never a machine, and evicts the oldest row once full. It is safe
// for concurrent use and its zero value is ready.
type rowMemo struct {
	mu    sync.Mutex
	rows  map[rowKey]Row
	order []rowKey // oldest first
}

var memo rowMemo

func (m *rowMemo) put(k rowKey, r Row) {
	r.Phases = slices.Clone(r.Phases)
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.rows[k]; ok {
		return
	}
	if m.rows == nil {
		m.rows = map[rowKey]Row{}
	}
	if len(m.order) == memoRows {
		delete(m.rows, m.order[0])
		m.order = m.order[1:]
	}
	m.order = append(m.order, k)
	m.rows[k] = r
}

// row is version v's simulated row, from the memo when its configuration
// has already run under the same scale and template.
func (o Options) row(v figVersion) (Row, error) {
	k := rowKey{run: v.run, scale: o.Scale, machine: o.Machine}
	if k.machine.Sched == "" {
		k.machine.Sched = rt.SchedWheel
	}
	if n := k.machine.Net; n != nil {
		b, _ := json.Marshal(n) // plain numbers: Marshal cannot fail
		k.machine.Net, k.net = nil, string(b)
	}
	memo.mu.Lock()
	r, ok := memo.rows[k]
	memo.mu.Unlock()
	if ok {
		// A hit answers under the caller's label with its own Phases. The
		// profile is shared: nothing writes one after it is validated.
		r.Label, r.Phases = v.label, slices.Clone(r.Phases)
		return r, nil
	}
	m, err := o.simulate(v.run, false)
	if err != nil {
		return Row{}, err
	}
	r = machineRow(v.label, m)
	if err := o.attachProfile(&r, m, v.run.app); err != nil {
		return Row{}, err
	}
	memo.put(k, r)
	return r, nil
}
