package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestMain lets the test binary stand in for the cstarc binary: re-executed
// with asMain as its first argument it runs main() on the rest, so the
// tests below observe the real exit status and stderr.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == asMain {
		os.Args = append(os.Args[:1], os.Args[2:]...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

const asMain = "run-as-main"

// program is a small cstar program the runs below compile and execute.
const program = `aggregate A[] { float x; }
parallel func f(parallel a: A) { a.x = a[#0 + 1].x + 1; }
func main() { let g = A[16]; f(g); let s = reduce(+, g.x); }
`

// run executes main in a child process on args followed by the path of
// program, and returns its exit status, stdout and stderr.
func run(t *testing.T, args string) (int, string, string) {
	t.Helper()
	return runSrc(t, program, args)
}

// runSrc is run on the program src.
func runSrc(t *testing.T, src, args string) (int, string, string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "p.cstar")
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	cmd := exec.Command(os.Args[0], append(append([]string{asMain}, strings.Fields(args)...), path)...)
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	if err != nil && !errors.As(err, &exit) {
		t.Fatal(err)
	}
	// An unrecovered panic exits 2 as well; only stderr tells them apart.
	if strings.Contains(stderr.String(), "goroutine ") {
		t.Errorf("%s: stderr carries a goroutine trace:\n%s", args, stderr.String())
	}
	return cmd.ProcessState.ExitCode(), stdout.String(), stderr.String()
}

// TestBadMachineFlagsExitTwo: with -run, a machine the runtime cannot
// build is a usage error — exit status 2 and one line on stderr naming
// the value, never a Go panic or a silently different machine.
func TestBadMachineFlagsExitTwo(t *testing.T) {
	for args, want := range map[string]string{
		"-nodes -3":        "-nodes -3",
		"-nodes 0":         "-nodes 0",
		"-nodes 5000":      "node count 5000",
		"-block 24":        "block size 24",
		"-block 8":         "block size 8",
		"-protocol bogus":  `unknown protocol "bogus"`,
		"-protocol update": "",
	} {
		code, stdout, stderr := run(t, "-run "+args)
		if want == "" {
			if code != 0 || !strings.Contains(stdout, "protocol=update nodes=16 block=32B") {
				t.Errorf("%s: exit %d, stdout %q, stderr %q; want a run on the update protocol", args, code, stdout, stderr)
			}
			continue
		}
		if code != 2 || !strings.Contains(stderr, want) || strings.Count(stderr, "\n") != 1 {
			t.Errorf("%s: exit %d, stderr %q; want exit 2 and one line containing %q", args, code, stderr, want)
		}
	}
}

// TestRunReportsMachine: the report names the machine that ran.
func TestRunReportsMachine(t *testing.T) {
	code, stdout, stderr := run(t, "-run -nodes 4 -block 64 -protocol stache")
	if code != 0 || !strings.Contains(stdout, "protocol=stache nodes=4 block=64B") || !strings.Contains(stdout, "final scalars:") {
		t.Fatalf("exit %d, stdout %q, stderr %q", code, stdout, stderr)
	}
}

// TestMachineFlagsNeedRun: without -run the machine flags are unused, so
// the analysis report does not depend on them.
func TestMachineFlagsNeedRun(t *testing.T) {
	code, stdout, stderr := run(t, "-nodes 0 -block 24")
	if code != 0 || stdout == "" || stderr != "" {
		t.Fatalf("exit %d, stdout %q, stderr %q; want the analysis report", code, stdout, stderr)
	}
}

// TestFinalScalarsSorted: the final scalars print in name order, so two
// runs of one program print the same bytes.
func TestFinalScalarsSorted(t *testing.T) {
	const src = `aggregate A[] { float x; }
parallel func f(parallel a: A) { a.x = #0; }
func main() { let g = A[8]; f(g); let zeta = 3; let alpha = 1; let mid = reduce(+, g.x); let beta = 2; }
`
	var outs [2]string
	for k := range outs {
		code, stdout, stderr := runSrc(t, src, "-run -nodes 2")
		if code != 0 {
			t.Fatalf("exit %d, stderr %q", code, stderr)
		}
		outs[k] = stdout
	}
	if outs[0] != outs[1] {
		t.Fatalf("two runs printed different output:\n%s\n---\n%s", outs[0], outs[1])
	}
	_, scalars, _ := strings.Cut(outs[0], "final scalars:\n")
	want := "  alpha = 1\n  beta = 2\n  mid = 28\n  zeta = 3\n"
	if scalars != want {
		t.Fatalf("final scalars %q, want %q", scalars, want)
	}
}
