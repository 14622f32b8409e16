package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestMain lets the test binary stand in for the paperbench binary: re-executed
// with asMain as its first argument it runs main() on the rest, so the
// smoke tests below observe the real exit status and stderr without a
// separate go build.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == asMain {
		os.Args = append(os.Args[:1], os.Args[2:]...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

const asMain = "run-as-main"

// run executes main in a child process and a scratch directory and
// returns its exit status, stdout and stderr.
func run(t *testing.T, args string) (int, string, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	cmd := exec.Command(os.Args[0], append([]string{asMain}, strings.Fields(args)...)...)
	cmd.Dir = t.TempDir()
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	if err != nil && !errors.As(err, &exit) {
		t.Fatal(err)
	}
	return cmd.ProcessState.ExitCode(), stdout.String(), stderr.String()
}

// TestBadFlagsExitTwo: a bad configuration value is a usage error — exit
// status 2 and one line on stderr naming the value, never a Go panic.
func TestBadFlagsExitTwo(t *testing.T) {
	for args, want := range map[string]string{
		"-engine warp":    `unknown engine "warp"`,
		"-net infiniband": `unknown preset "infiniband"`,
		"-workers -1":     "negative worker count",
	} {
		code, _, stderr := run(t, args)
		if code != 2 || !strings.Contains(stderr, want) || strings.Count(stderr, "\n") != 1 {
			t.Errorf("%s: exit %d, stderr %q; want exit 2 and one line containing %q", args, code, stderr, want)
		}
	}
	// The machine shape is not paperbench's to set, and the retired
	// scheduler and kernel-benchmark flags are gone: the flag package
	// rejects them all.
	for _, arg := range []string{"-protocol=stache", "-block=64", "-sched=heap", "-kernel-bench=k.json", "-kernel-speedup"} {
		if code, _, stderr := run(t, arg); code != 2 || !strings.Contains(stderr, "flag provided but not defined") {
			t.Errorf("%s: exit %d, stderr %q; want exit 2 (undefined flag)", arg, code, stderr)
		}
	}
}

func TestTinyRun(t *testing.T) {
	code, stdout, stderr := run(t, "-experiment figure7 -engine parallel -workers 2 -json=")
	if code != 0 {
		t.Fatalf("exit %d, stderr %q", code, stderr)
	}
	if !strings.Contains(stdout, "figure7 finished") || !strings.Contains(stdout, "(engine: parallel)") {
		t.Errorf("unexpected stdout:\n%s", stdout)
	}
}

// TestFigure4OutsideCheckout: figure 4's cstar program is built into the
// binary, so the experiment runs from any working directory.
func TestFigure4OutsideCheckout(t *testing.T) {
	code, stdout, stderr := run(t, "-experiment figure4 -json=")
	if code != 0 {
		t.Fatalf("exit %d, stderr %q", code, stderr)
	}
	if !strings.Contains(stdout, "figure4 finished") {
		t.Errorf("unexpected stdout:\n%s", stdout)
	}
}
