package main

import (
	"fmt"
	"io"
	"math"
)

// runSelfcheck runs every workload twice, as two sets of the same code on
// the same host with the same seed, and holds the sets to the benchmark's
// own rules: every end-to-end metric of the second set within its bound of
// the first, and every result and exact count identical. It exits non-zero
// otherwise. The table it prints is what bench/results keeps.
func runSelfcheck(o options, stdout, stderr io.Writer) int {
	doc, err := loadBenchmarkDoc(o.root)
	if err != nil {
		fmt.Fprintf(stderr, "prestobench: %v\n", err)
		return 1
	}
	o.trace = false
	bad := 0
	fmt.Fprintf(stdout, "%-18s %-12s %12s %12s %8s %7s\n", "workload", "metric", "set 1", "set 2", "worse", "bound")
	for _, w := range workloads {
		var sets [2]*runResult
		for i := range sets {
			if sets[i], err = runWorkload(w, o); err != nil {
				fmt.Fprintf(stderr, "prestobench: %s: %v\n", w.name, err)
				return 1
			}
			if !sets[i].correct() {
				bad++
				fmt.Fprintf(stdout, "%-18s set %d failed %d of %d operations: %v\n",
					w.name, i+1, sets[i].failed, sets[i].attempted, sets[i].failures)
			}
		}
		for _, m := range doc.EndToEnd {
			a, b := sets[0].metrics[m.Name].Value, sets[1].metrics[m.Name].Value
			// How much worse the second set is than the first, as a share
			// of the first, in the metric's own direction.
			worse := (b - a) / a
			if m.Better == "higher" {
				worse = -worse
			}
			verdict := ""
			if worse > m.Bound || math.IsNaN(worse) {
				verdict = "  OUT OF BOUND"
				bad++
			}
			fmt.Fprintf(stdout, "%-18s %-12s %12.6g %12.6g %+7.1f%% %6.0f%%%s\n",
				w.name, m.Name, a, b, 100*worse, 100*m.Bound, verdict)
		}
		diffs := append(diffMaps("result", sets[1].results, sets[0].results),
			diffMaps("count", sets[1].counts, sets[0].counts)...)
		for _, d := range diffs {
			bad++
			fmt.Fprintf(stdout, "%-18s set 2 differs from set 1: %s\n", w.name, d)
		}
	}
	if bad > 0 {
		fmt.Fprintf(stdout, "selfcheck: %d problems\n", bad)
		return 1
	}
	fmt.Fprintln(stdout, "selfcheck: the two sets agree")
	return 0
}
