package harness

import (
	"encoding/json"
	"io"

	"presto/internal/causal"
	"presto/internal/predict"
	"presto/internal/rt"
)

// rowJSON is a Row with stable machine-readable field names. Times are
// virtual nanoseconds.
type rowJSON struct {
	Label        string         `json:"label"`
	BlockBytes   int            `json:"block_bytes"`
	TotalNS      int64          `json:"total_ns"`
	RemoteWaitNS int64          `json:"remote_wait_ns"`
	PresendNS    int64          `json:"presend_ns"`
	ComputeNS    int64          `json:"compute_ns"`
	SyncNS       int64          `json:"sync_ns"`
	ReadFaults   int64          `json:"read_faults"`
	WriteFaults  int64          `json:"write_faults"`
	MsgsSent     int64          `json:"msgs_sent"`
	BytesSent    int64          `json:"bytes_sent"`
	PresendsSent int64          `json:"presends_sent"`
	BulkMsgs     int64          `json:"bulk_msgs"`
	Conflicts    int64          `json:"conflicts"`
	Phases       []rt.PhaseStat `json:"phases,omitempty"`
	// Profile is the row's causal attribution (Options.Profile only).
	Profile *causal.Profile `json:"profile,omitempty"`
}

// resultJSON is one experiment's machine-readable record.
type resultJSON struct {
	ID    string    `json:"id"`
	Title string    `json:"title"`
	Rows  []rowJSON `json:"rows"`
	Notes []string  `json:"notes,omitempty"`
	// Error is the predicted-vs-simulated comparison table (the
	// predict-error experiment and paperbench -predict).
	Error *predict.ErrorTable `json:"predict_error,omitempty"`
	// Curve is the scaling experiment's (topology, nodes, aggregation)
	// measurements.
	Curve *ScalingCurve `json:"scaling_curve,omitempty"`
}

func (res *Result) toJSON() resultJSON {
	out := resultJSON{ID: res.ID, Title: res.Title, Notes: res.Notes, Error: res.Error, Curve: res.Curve}
	for _, r := range res.Rows {
		out.Rows = append(out.Rows, rowJSON{
			Label:        r.Label,
			BlockBytes:   r.BlockSize,
			TotalNS:      int64(r.B.Elapsed),
			RemoteWaitNS: int64(r.B.RemoteWait),
			PresendNS:    int64(r.B.Presend),
			ComputeNS:    int64(r.B.Compute),
			SyncNS:       int64(r.B.Sync),
			ReadFaults:   r.C.ReadFaults,
			WriteFaults:  r.C.WriteFaults,
			MsgsSent:     r.C.MsgsSent,
			BytesSent:    r.C.BytesSent,
			PresendsSent: r.C.PresendsSent,
			BulkMsgs:     r.C.BulkMsgs,
			Conflicts:    r.C.Conflicts,
			Phases:       r.Phases,
			Profile:      r.Profile,
		})
	}
	return out
}

// JSON renders the result as one machine-readable JSON document (the
// same per-experiment record WriteJSON emits, without the wrapper) —
// deterministic for a fixed configuration.
func (res *Result) JSON() ([]byte, error) {
	return json.Marshal(res.toJSON())
}

// WriteJSON writes the experiments' results as one machine-readable JSON
// document (paperbench's BENCH_results.json). Virtual time makes the
// output deterministic for a fixed configuration.
func WriteJSON(w io.Writer, results []*Result) error {
	docs := make([]resultJSON, 0, len(results))
	for _, res := range results {
		docs = append(docs, res.toJSON())
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(struct {
		Experiments []resultJSON `json:"experiments"`
	}{docs})
}
