package trace

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"presto/internal/sim"
)

func TestRingExactWrapBoundary(t *testing.T) {
	// Filling a ring to exactly its capacity must retain every event in
	// order; one more evicts exactly the oldest.
	r := NewRing(4)
	for i := 0; i < 4; i++ {
		r.Add(sim.Time(i), 0, Note, "e%d", i)
	}
	ev := r.Events()
	if len(ev) != 4 {
		t.Fatalf("retained = %d", len(ev))
	}
	for i, e := range ev {
		if e.At != sim.Time(i) {
			t.Fatalf("event %d at %v", i, e.At)
		}
	}
	r.Add(4, 0, Note, "e4")
	ev = r.Events()
	if len(ev) != 4 || ev[0].At != 1 || ev[3].At != 4 {
		t.Fatalf("after wrap: %+v", ev)
	}
	if r.Total() != 5 {
		t.Fatalf("total = %d", r.Total())
	}
}

func TestRingReset(t *testing.T) {
	r := NewRing(4)
	for i := 0; i < 6; i++ {
		r.Add(sim.Time(i), 0, Note, "x")
	}
	r.Reset()
	if r.Total() != 0 || len(r.Events()) != 0 {
		t.Fatalf("after reset: total=%d events=%d", r.Total(), len(r.Events()))
	}
	// The ring must be fully reusable: oldest-first order again.
	r.Add(10, 1, Fault, "f")
	r.Add(11, 2, Send, "s")
	ev := r.Events()
	if len(ev) != 2 || ev[0].At != 10 || ev[1].At != 11 {
		t.Fatalf("after reuse: %+v", ev)
	}
}

func TestRingEventsFor(t *testing.T) {
	r := NewRing(16)
	for i := 0; i < 12; i++ {
		r.Add(sim.Time(i), i%4, Note, "e%d", i)
	}
	got := r.EventsFor([]int{1, 3}, 0)
	if len(got) != 6 {
		t.Fatalf("filtered = %d", len(got))
	}
	for i := 1; i < len(got); i++ {
		if got[i].At < got[i-1].At {
			t.Fatal("not oldest-first")
		}
	}
	capped := r.EventsFor([]int{1, 3}, 2)
	if len(capped) != 2 || capped[1].At != 11 {
		t.Fatalf("capped = %+v", capped)
	}
}

func TestJSONLOutput(t *testing.T) {
	var buf bytes.Buffer
	j := NewJSONL(&buf)
	j.Record(Event{At: 1500, Node: 2, Proc: ProcProto, Kind: Send, Phase: 3, Iter: 1, Flow: 7, What: "GetRO -> n0"})
	j.Record(Event{At: 2500, Node: 0, Proc: ProcCompute, Kind: Fault, Phase: -1, What: "read 0x40"})
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("lines = %d:\n%s", len(lines), buf.String())
	}
	var first map[string]any
	if err := json.Unmarshal([]byte(lines[0]), &first); err != nil {
		t.Fatalf("line 1 not JSON: %v", err)
	}
	for k, want := range map[string]any{
		"at_ns": 1500.0, "node": 2.0, "proc": "protocol", "kind": "send",
		"phase": 3.0, "iter": 1.0, "flow": 7.0, "what": "GetRO -> n0",
	} {
		if first[k] != want {
			t.Fatalf("line 1 %s = %v, want %v", k, first[k], want)
		}
	}
}

func TestJSONLDeterministic(t *testing.T) {
	run := func() string {
		var buf bytes.Buffer
		j := NewJSONL(&buf)
		for i := 0; i < 50; i++ {
			j.Record(Event{At: sim.Time(i * 10), Node: i % 3, Kind: Kind(i % 3), Phase: i % 2, What: "w"})
		}
		j.Close()
		return buf.String()
	}
	if run() != run() {
		t.Fatal("identical event streams rendered differently")
	}
}

func TestChromeOutput(t *testing.T) {
	c := NewChrome()
	c.Record(Event{At: 1000, Node: 0, Proc: ProcCompute, Kind: PhaseBegin, Phase: 2, Iter: 1, What: "forces"})
	c.Record(Event{At: 1500, Node: 0, Proc: ProcCompute, Kind: Fault, Phase: 2, What: "read 0x40"})
	c.Record(Event{At: 2000, Node: 0, Proc: ProcCompute, Kind: Send, Phase: 2, Flow: 9, What: "GetRO -> n1"})
	c.Record(Event{At: 3500, Node: 1, Proc: ProcProto, Kind: Recv, Phase: -1, Flow: 9, What: "GetRO"})
	c.Record(Event{At: 9000, Node: 0, Proc: ProcCompute, Kind: PhaseEnd, Phase: 2, Iter: 1, What: "forces"})
	if c.Len() != 5 {
		t.Fatalf("len = %d", c.Len())
	}
	var buf bytes.Buffer
	if err := c.Write(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("output is not valid JSON: %v\n%s", err, buf.String())
	}
	// Metadata for both nodes: 2 * (process_name + 2 thread_name).
	meta := 0
	phases := map[string]int{}
	flows := map[string]int{}
	for _, e := range doc.TraceEvents {
		switch e["ph"] {
		case "M":
			meta++
		case "B", "E":
			phases[e["ph"].(string)]++
			if e["name"] != "forces" {
				t.Fatalf("phase span named %v", e["name"])
			}
		case "s", "f":
			flows[e["ph"].(string)]++
			if e["id"] != "9" {
				t.Fatalf("flow id = %v", e["id"])
			}
		}
	}
	if meta != 6 {
		t.Fatalf("metadata events = %d", meta)
	}
	if phases["B"] != 1 || phases["E"] != 1 {
		t.Fatalf("phase spans = %v", phases)
	}
	if flows["s"] != 1 || flows["f"] != 1 {
		t.Fatalf("flow events = %v", flows)
	}
	// Timestamps are microseconds with exact 3-decimal nanosecond
	// precision: 1500ns -> 1.500.
	if !strings.Contains(buf.String(), `"ts":1.500`) {
		t.Fatalf("expected exact microsecond rendering:\n%s", buf.String())
	}
}

func TestChromeDeterministic(t *testing.T) {
	build := func() *Chrome {
		c := NewChrome()
		for i := 0; i < 40; i++ {
			c.Record(Event{At: sim.Time(i * 7), Node: i % 3, Proc: ProcID(i % 2),
				Kind: Kind(i % 6), Phase: i % 4, Flow: int64(i), What: "w"})
		}
		return c
	}
	var b1, b2 bytes.Buffer
	if err := build().Write(&b1); err != nil {
		t.Fatal(err)
	}
	if err := build().Write(&b2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
		t.Fatal("identical event streams rendered differently")
	}
}
