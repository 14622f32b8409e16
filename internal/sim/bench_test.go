package sim_test

import (
	"testing"

	"presto/internal/kernelbench"
)

// BenchmarkKernel runs the shared hot-path workloads (see
// internal/kernelbench) under `go test -bench`.
func BenchmarkKernel(b *testing.B) {
	for _, c := range kernelbench.Cases() {
		b.Run(c.Name, c.Bench)
	}
}
