// The benchmark is a package with its own build file, as the benchmark
// contract asks. Its module path sits under presto/, which is what lets it
// import presto/internal/...; the root's go build ./... and go test ./...
// do not enter a nested module.
module presto/bench

go 1.22

require presto v0.0.0

replace presto => ../
