package harness

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"presto/internal/network"
	"presto/internal/rt"
)

// freshMemo empties the process-wide row memo, so the rows a test reads
// are simulated in it.
func freshMemo() {
	memo.mu.Lock()
	defer memo.mu.Unlock()
	memo.rows, memo.order = nil, nil
}

func (m *rowMemo) len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.rows)
}

// memoRow is the quick-scale row of v under template m, through the memo.
func memoRow(t *testing.T, m rt.Config, v figVersion) Row {
	t.Helper()
	o, err := Options{Scale: Quick, Machine: m}.withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	r, err := o.row(v)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestRowMemoKeyedApart: a row is memoised under its whole run-wide
// template. Each field alone must simulate again (the memo grows by one
// row); equal values spelled differently must hit (it does not grow).
func TestRowMemoKeyedApart(t *testing.T) {
	freshMemo()
	water := figVersion{"water opt (32)", figRun{"water", false, rt.ProtoPredictive, 32}}
	net := func(name string) *network.Params {
		p, err := network.Preset(name)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	memoRow(t, rt.Config{}, water)
	for _, c := range []struct {
		name string
		m    rt.Config
		want int
	}{
		{"Sched wheel spelled out", rt.Config{Sched: rt.SchedWheel}, 1},
		{"Engine", rt.Config{Engine: rt.EngineParallel}, 2},
		{"Workers", rt.Config{Workers: 2}, 3},
		{"Sched heap", rt.Config{Sched: rt.SchedHeap}, 4},
		{"Profile", rt.Config{Profile: true}, 5},
		{"Aggregate", rt.Config{Aggregate: true}, 6},
		{"Net now", rt.Config{Net: network.NOW()}, 7},
		{"Net now, another pointer", rt.Config{Net: network.NOW()}, 7},
		{"Net cluster:4x4", rt.Config{Net: net("cluster:4x4")}, 8},
		{"Net cluster:2x8", rt.Config{Net: net("cluster:2x8")}, 9},
	} {
		memoRow(t, c.m, water)
		if got := memo.len(); got != c.want {
			t.Errorf("%s: memo holds %d rows, want %d", c.name, got, c.want)
		}
	}
}

// TestRowMemoHit: a hit is the simulated row under the caller's label,
// with a Phases slice of its own.
func TestRowMemoHit(t *testing.T) {
	freshMemo()
	v := figure5Versions[1]
	miss := memoRow(t, rt.Config{}, v)
	hit := memoRow(t, rt.Config{}, figVersion{"adaptive opt (32)", v.run})
	if memo.len() != 1 {
		t.Fatalf("memo holds %d rows after a miss and a hit, want 1", memo.len())
	}
	if hit.Label != "adaptive opt (32)" {
		t.Fatalf("hit labelled %q, want the caller's", hit.Label)
	}
	hit.Label = miss.Label
	if !reflect.DeepEqual(hit, miss) {
		t.Fatalf("hit %+v differs from the simulated row %+v", hit, miss)
	}
	var cached Row
	for _, cached = range memo.rows {
	}
	if len(cached.Phases) == 0 {
		t.Fatalf("%s row has no phases", v.label)
	}
	if &hit.Phases[0] == &cached.Phases[0] || &miss.Phases[0] == &cached.Phases[0] {
		t.Fatal("a returned row shares its Phases with the memo")
	}
}

// TestRowMemoCap: the memo holds at most memoRows rows and evicts the
// oldest first.
func TestRowMemoCap(t *testing.T) {
	freshMemo()
	const extra = 6
	for w := 1; w <= memoRows+extra; w++ {
		memo.put(rowKey{machine: rt.Config{Workers: w}}, Row{})
	}
	if got := memo.len(); got != memoRows {
		t.Fatalf("memo holds %d rows, want the cap %d", got, memoRows)
	}
	for w := 1; w <= memoRows+extra; w++ {
		_, held := memo.rows[rowKey{machine: rt.Config{Workers: w}}]
		if want := w > extra; held != want {
			t.Fatalf("row %d held = %v, want %v (oldest evicted first)", w, held, want)
		}
	}
}

// TestConcurrentExperiments is the dsmserve shape: experiments run at
// once share the memo, and each still matches its golden. Run it under
// -race.
func TestConcurrentExperiments(t *testing.T) {
	freshMemo()
	ids := []string{"figure7", "figure7", "sweep"}
	got := make([][]byte, len(ids))
	errs := make([]error, len(ids))
	var wg sync.WaitGroup
	for i, id := range ids {
		wg.Add(1)
		go func() {
			defer wg.Done()
			e, _ := ByID(id)
			got[i], _, errs[i] = RunCSV(e, Options{Scale: Quick})
		}()
	}
	wg.Wait()
	for i, id := range ids {
		if errs[i] != nil {
			t.Fatalf("%s: %v", id, errs[i])
		}
		want, err := os.ReadFile(filepath.Join("testdata", "golden", id+".csv"))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got[i], want) {
			t.Errorf("%s run %d diverges from its golden:\n%s", id, i, got[i])
		}
	}
}
