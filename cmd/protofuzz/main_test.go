package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// TestMain lets the test binary stand in for the protofuzz binary:
// re-executed with asMain as its first argument it runs main() on the
// rest, so the tests below observe the real exit status and stderr.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == asMain {
		os.Args = append(os.Args[:1], os.Args[2:]...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

const asMain = "run-as-main"

// goroutineTrace matches the header of a Go panic's goroutine dump, which
// also exits 2.
var goroutineTrace = regexp.MustCompile(`goroutine \d+ \[`)

// run executes main in a child process and returns its exit status and
// stderr, failing the test on a goroutine dump.
func run(t *testing.T, args string) (int, string) {
	t.Helper()
	var stderr bytes.Buffer
	cmd := exec.Command(os.Args[0], append([]string{asMain}, strings.Fields(args)...)...)
	cmd.Dir = t.TempDir()
	cmd.Stderr = &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	if err != nil && !errors.As(err, &exit) {
		t.Fatal(err)
	}
	if goroutineTrace.MatchString(stderr.String()) {
		t.Errorf("%s: stderr carries a goroutine trace:\n%s", args, stderr.String())
	}
	return cmd.ProcessState.ExitCode(), stderr.String()
}

// TestUsageErrorsExitTwo: a campaign that cannot mean what it says is a
// usage error, before any seed runs — -seeds 0 must not fall back to a
// default band, nor a negative count report a clean run of nothing, nor
// a negative seed or start fall back to seed 1.
func TestUsageErrorsExitTwo(t *testing.T) {
	for args, want := range map[string]string{
		"-seeds 0":           "-seeds 0",
		"-seeds -3":          "-seeds -3",
		"-seed -4 -seeds 2":  "-seed -4",
		"-seed -1 -repro":    "-seed -1",
		"-start -2 -seeds 2": "-start -2",
		"-repro":             "-repro requires -seed",
		"-scale huge":        `unknown scale "huge"`,
		"-server http://127.0.0.1:1 -repro -seed 1": "does not support",
	} {
		if code, stderr := run(t, args); code != 2 || !strings.Contains(stderr, want) {
			t.Errorf("%s: exit %d, stderr %q; want exit 2 naming %q", args, code, stderr, want)
		}
	}
}

// TestCampaignsExitZero: a clean band passes, and -seed N runs seed N
// alone, 0 included.
func TestCampaignsExitZero(t *testing.T) {
	for args, want := range map[string][]string{
		"-seeds 2 -q": nil,
		"-seed 0":     {"seed 0 ok"},
	} {
		code, stderr := run(t, args)
		if got := seedLine.FindAllString(stderr, -1); code != 0 || !slices.Equal(got, want) {
			t.Errorf("%s: exit %d, progress %q; want exit 0 and %q\n%s", args, code, got, want, stderr)
		}
	}
}

// seedLine matches a campaign's per-seed progress line.
var seedLine = regexp.MustCompile(`(?m)^seed -?\d+ ok`)
