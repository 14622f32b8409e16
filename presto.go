// Package presto is the public facade of this repository: a Go
// reproduction of "Compiler-directed Shared-Memory Communication for
// Iterative Parallel Applications" (Viswanathan & Larus, Supercomputing
// 1996).
//
// The package re-exports the pieces a user composes:
//
//   - a simulated fine-grain DSM machine (Config/New/Machine/Worker) with
//     selectable coherence protocols — Stache write-invalidate, the
//     paper's predictive protocol, and a write-update baseline;
//   - the cstar (C**-subset) compiler pipeline (Compile) that summarizes
//     parallel functions, runs the reaching-unstructured-accesses
//     analysis, and places pre-send directives;
//   - an interpreter (Execute) that runs compiled programs on the
//     machine, letting the compiler's directives drive the protocol.
//
// The paper's applications run through cmd/dsmrun and its experiments
// through cmd/paperbench.
package presto

import (
	"presto/internal/check"
	"presto/internal/compiler"
	"presto/internal/interp"
	"presto/internal/lang"
	"presto/internal/rt"
)

// Machine construction and SPMD programming.
type (
	// Config selects node count, cache-block size, protocol and cost
	// model for one simulated machine.
	Config = rt.Config
	// Machine is a simulated 32-node-class DSM machine.
	Machine = rt.Machine
	// Worker is one node's view of a running SPMD program.
	Worker = rt.Worker
	// Breakdown is the paper's three-way execution-time split.
	Breakdown = rt.Breakdown
	// Counters aggregates protocol event counts.
	Counters = rt.Counters
)

// Protocol selectors.
const (
	// Stache is the default write-invalidate protocol (unoptimized).
	Stache = rt.ProtoStache
	// Predictive is the paper's predictive protocol (optimized).
	Predictive = rt.ProtoPredictive
	// Update is the write-update baseline protocol.
	Update = rt.ProtoUpdate
)

// NewMachine builds a machine; allocate aggregates, then call Run once.
func NewMachine(cfg Config) *Machine { return rt.New(cfg) }

// CheckCoherence audits protocol invariants over a finished machine and
// returns human-readable violations (empty means coherent).
func CheckCoherence(m *Machine) []string {
	var out []string
	for _, v := range check.Machine(m) {
		out = append(out, v.String())
	}
	return out
}

// Compiler pipeline.
type (
	// Program is a parsed cstar program.
	Program = lang.Program
	// Analysis is the compiler's placement analysis of a program.
	Analysis = compiler.Analysis
)

// Compile parses and analyzes cstar source, returning the analysis whose
// Report method renders the Figure-4-style annotated CFG.
func Compile(src string) (*Analysis, error) {
	prog, err := lang.Parse(src)
	if err != nil {
		return nil, err
	}
	return compiler.Analyze(prog)
}

// ExecuteOptions configures an interpreted run.
type ExecuteOptions = interp.Options

// ExecuteResult is an interpreted run's outcome.
type ExecuteResult = interp.Result

// Execute runs a compiled program on a simulated machine, with the
// compiler's directives driving the predictive protocol.
func Execute(a *Analysis, opt ExecuteOptions) (*ExecuteResult, error) {
	return interp.Run(a, opt)
}
