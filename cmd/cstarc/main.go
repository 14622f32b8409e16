// Command cstarc is the cstar (C**-subset) compiler driver: it parses a
// program, prints the parallel-function access summaries, the annotated
// control-flow graph of main, and the pre-send directive placement — the
// paper's Figure 4, regenerated for any input program.
//
// Usage:
//
//	cstarc [-format] [-run] [-nodes N] [-block B] [-protocol stache|predictive|update] file.cstar
//
// -format pretty-prints the program instead of analyzing it. -run
// executes the compiled program on a simulated machine and reports the
// execution-time breakdown. With -run, a bad -nodes, -block or -protocol
// exits with status 2 and a one-line error before anything is read.
package main

import (
	"flag"
	"fmt"
	"os"
	"slices"

	"presto/internal/compiler"
	"presto/internal/interp"
	"presto/internal/lang"
	"presto/internal/rt"
)

func main() {
	format := flag.Bool("format", false, "pretty-print the program and exit")
	run := flag.Bool("run", false, "execute the compiled program on the simulated machine")
	nodes := flag.Int("nodes", 16, "simulated node count for -run")
	block := flag.Int("block", 32, "cache block size in bytes for -run")
	protocol := flag.String("protocol", "predictive", "coherence protocol for -run: stache, predictive or update")
	flag.Parse()

	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: cstarc [flags] file.cstar")
		os.Exit(2)
	}
	mc := rt.Config{Nodes: *nodes, BlockSize: *block, Protocol: rt.ProtocolKind(*protocol)}
	if *run {
		err := mc.Validate()
		if *nodes < 1 {
			// Validate reads zero nodes as the runtime's default size.
			err = fmt.Errorf("-nodes %d: want at least 1", *nodes)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "cstarc:", err)
			os.Exit(2)
		}
	}
	src, err := os.ReadFile(flag.Arg(0))
	if err != nil {
		fatal(err)
	}
	prog, err := lang.Parse(string(src))
	if err != nil {
		fatal(err)
	}
	if *format {
		fmt.Print(lang.Format(prog))
		return
	}
	a, err := compiler.Analyze(prog)
	if err != nil {
		fatal(err)
	}
	fmt.Print(a.Report())

	if !*run {
		return
	}
	fmt.Println("\nExecuting on the simulated machine...")
	res, err := interp.Run(a, interp.Options{Machine: mc})
	if err != nil {
		fatal(err)
	}
	b, c := res.Breakdown, res.Machine.Cfg
	fmt.Printf("\nprotocol=%s nodes=%d block=%dB\n", c.Protocol, c.Nodes, c.BlockSize)
	fmt.Printf("elapsed         %v\n", b.Elapsed)
	fmt.Printf("compute         %v\n", b.Compute)
	fmt.Printf("remote wait     %v\n", b.RemoteWait)
	fmt.Printf("pre-send        %v\n", b.Presend)
	fmt.Printf("synchronization %v\n", b.Sync)
	fmt.Printf("faults          %d read / %d write; pre-sends %d\n",
		res.Counters.ReadFaults, res.Counters.WriteFaults, res.Counters.PresendsSent)
	if len(res.Scalars) > 0 {
		fmt.Println("final scalars:")
		names := make([]string, 0, len(res.Scalars))
		for k := range res.Scalars {
			names = append(names, k)
		}
		slices.Sort(names)
		for _, k := range names {
			fmt.Printf("  %s = %g\n", k, res.Scalars[k])
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "cstarc:", err)
	os.Exit(1)
}
