package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"regexp"
	"strings"
	"testing"
)

// TestMain lets the test binary stand in for the dsmrun binary: re-executed
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

// goroutineTrace matches the header of a Go panic's goroutine dump.
var goroutineTrace = regexp.MustCompile(`goroutine \d+ \[`)

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
	// An unrecovered panic also exits non-zero; its trace must never
	// stand in for an error line.
	if goroutineTrace.MatchString(stderr.String()) {
		t.Errorf("%s: stderr carries a goroutine trace:\n%s", args, stderr.String())
	}
	return cmd.ProcessState.ExitCode(), stdout.String(), stderr.String()
}

// TestBadFlagsExitTwo: a bad configuration value is a usage error — exit
// status 2 and one line on stderr naming the value, never a Go panic.
func TestBadFlagsExitTwo(t *testing.T) {
	for args, want := range map[string]string{
		"-protocol foo":                        `unknown protocol "foo"`,
		"-block 48":                            "block size 48",
		"-nodes 5000":                          "node count 5000",
		"-engine warp":                         `unknown engine "warp"`,
		"-net infiniband":                      `unknown preset "infiniband"`,
		"-nodes 8 -net cluster:4x4":            "describes 16 nodes",
		"-engine parallel -nodes 4 -workers 9": "4 lanes",
		"-predict -nodes 96":                   "at most 64 nodes",
		"-size -5":                             "-size -5 is negative",
		"-iters -1":                            "-iters -1 is negative",
	} {
		code, _, stderr := run(t, "-app water "+args)
		if code != 2 || !strings.Contains(stderr, want) || strings.Count(stderr, "\n") != 1 {
			t.Errorf("%s: exit %d, stderr %q; want exit 2 and one line containing %q", args, code, stderr, want)
		}
	}
	// The retired scheduler flag is gone: the flag package rejects it.
	if code, _, stderr := run(t, "-app water -sched=heap"); code != 2 || !strings.Contains(stderr, "flag provided but not defined") {
		t.Errorf("-sched=heap: exit %d, stderr %q; want exit 2 (undefined flag)", code, stderr)
	}
}

// TestPredictBlockOutOfRange: -predict rejects a block size its 32B
// calibration cannot reach before simulating anything.
func TestPredictBlockOutOfRange(t *testing.T) {
	for _, block := range []string{"16", "4096"} {
		code, stdout, stderr := run(t, "-app adaptive -predict -nodes 16 -size 64 -iters 30 -block "+block)
		if want := "32-2048 B blocks (32<<0..32<<6), not " + block; code != 2 || stdout != "" || !strings.Contains(stderr, want) || strings.Count(stderr, "\n") != 1 {
			t.Errorf("-block %s: exit %d, stdout %q, stderr %q; want exit 2, no output and one line containing %q", block, code, stdout, stderr, want)
		}
	}
}

func TestTinyRun(t *testing.T) {
	code, stdout, stderr := run(t, "-app water -protocol predictive -nodes 4 -size 16 -iters 2 -engine parallel -workers 2")
	if code != 0 {
		t.Fatalf("exit %d, stderr %q", code, stderr)
	}
	for _, want := range []string{"water on 4 nodes, 32B blocks, predictive protocol", "2 workers over 4 lanes", "energy checksum"} {
		if !strings.Contains(stdout, want) {
			t.Errorf("stdout lacks %q:\n%s", want, stdout)
		}
	}
}

// TestZeroNodesRunsDefault: -nodes 0 means the default machine, and the
// summary names the node count that ran.
func TestZeroNodesRunsDefault(t *testing.T) {
	for _, app := range []string{"adaptive", "barnes", "water"} {
		code, stdout, stderr := run(t, "-app "+app+" -nodes 0 -size 16 -iters 1")
		if code != 0 {
			t.Fatalf("%s: exit %d, stderr %q", app, code, stderr)
		}
		if want := app + " on 32 nodes"; !strings.Contains(stdout, want) {
			t.Errorf("%s: stdout lacks %q:\n%s", app, want, stdout)
		}
	}
}

// TestBarnesSPMDUnaligned: an SPMD write-update shape whose bodies do
// not start a block on every node is one error line, not a host panic.
func TestBarnesSPMDUnaligned(t *testing.T) {
	code, _, stderr := run(t, "-app barnes -spmd -protocol update -nodes 5 -size 3 -block 64 -iters 1")
	if code != 1 || !strings.Contains(stderr, "first body is in a block homed by node 0") || strings.Count(stderr, "\n") != 1 {
		t.Errorf("exit %d, stderr %q; want exit 1 and one error line", code, stderr)
	}
}
