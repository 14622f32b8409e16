// Command mutate runs the mutant catalogue (catalogue.go): each entry is
// one deliberate defect, written as an exact text replacement in one
// source file, with the honest oracles that must catch it. The defect
// never enters the tree. The runner writes the mutated file to a
// temporary directory and hands it to the go command through -overlay,
// so shipping code carries no mutation hook.
//
// Run it from the module root:
//
//	go run ./cmd/mutate
//
// For each mutant the runner
//
//   - checks that Old occurs exactly once in File (else exit 2: the
//     catalogue has rotted);
//   - builds the module with the mutant (a mutant that does not build is
//     a catalogue error, exit 2, never a kill);
//   - runs each killer, a go test or go run command, with -overlay
//     inserted after the subcommand and under a fixed timeout.
//
// A killer kills the mutant only if it exits non-zero and its output
// matches Want, so a test that fails for an unrelated reason (a test
// file that no longer compiles, a timeout) is not a kill. A mutant is
// killed when every killer kills it and survives when none does. It
// prints one line per mutant and a score, and exits 0 only when every
// mutant is killed except the expected survivors (entries with a
// Survives reason), and those survive.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"time"
)

// mutant is one catalogue entry.
type mutant struct {
	Name string
	// File is the mutated source file, relative to the module root.
	File string
	// Old must occur exactly once in File; the mutant replaces it by New.
	Old, New string
	Killers  []killer
	// Survives, when set, marks an expected survivor and says why: an
	// equivalent mutant, or a gap and the ROADMAP item meant to close it.
	Survives string
}

// killer is an oracle expected to catch a mutant.
type killer struct {
	// Argv is a go test or go run command line, run from the module root.
	Argv []string
	// Want must match the killer's combined output for a kill.
	Want string
}

// killerTimeout bounds one killer run; a killer cut off by it does not
// kill.
const killerTimeout = 10 * time.Minute

func main() {
	os.Exit(run(".", catalogue, os.Stdout))
}

// run applies every mutant in ms to the module at root and reports to w.
// It returns the exit status: 0 when every verdict is the expected one,
// 1 when some is not, 2 on a catalogue error.
func run(root string, ms []mutant, w io.Writer) int {
	root, err := filepath.Abs(root)
	if err != nil {
		fmt.Fprintln(w, "mutate:", err)
		return 2
	}
	for _, m := range ms {
		if err := m.check(root); err != nil {
			fmt.Fprintln(w, "mutate:", err)
			return 2
		}
	}
	tmp, err := os.MkdirTemp("", "mutate-")
	if err != nil {
		fmt.Fprintln(w, "mutate:", err)
		return 2
	}
	defer os.RemoveAll(tmp)

	start := time.Now()
	killed, survived, expectSurvive, unexpected := 0, 0, 0, 0
	for i, m := range ms {
		t0 := time.Now()
		overlay, err := m.writeOverlay(root, filepath.Join(tmp, fmt.Sprint(i)))
		if err != nil {
			fmt.Fprintln(w, "mutate:", err)
			return 2
		}
		if out, err := goCmd(root, "go", "build", "-overlay", overlay, "./..."); err != nil {
			fmt.Fprintf(w, "mutate: %s does not build: %v\n%s", m.Name, err, out)
			return 2
		}
		kills := 0
		var notes []string
		for _, k := range m.Killers {
			ok, note := k.kills(root, overlay)
			if ok {
				kills++
			} else {
				notes = append(notes, note)
			}
		}
		verdict := "partial"
		switch kills {
		case len(m.Killers):
			verdict = "killed"
			killed++
		case 0:
			verdict = "survived"
			survived++
		}
		expected := "killed"
		if m.Survives != "" {
			expected = "survived"
			expectSurvive++
		}
		line := fmt.Sprintf("%-8s %-34s %d/%d killers  %5.1fs", verdict, m.Name, kills, len(m.Killers), time.Since(t0).Seconds())
		if m.Survives != "" {
			line += "  (expected survivor: " + m.Survives + ")"
		}
		if verdict != expected {
			unexpected++
			line = "UNEXPECTED " + line
			if m.Survives == "" {
				for _, n := range notes {
					line += "\n    " + strings.ReplaceAll(n, "\n", "\n    ")
				}
			}
		}
		fmt.Fprintln(w, line)
	}
	fmt.Fprintf(w, "mutate: %d/%d killed, %d survived (%d expected), %d unexpected, %.0fs\n",
		killed, len(ms), survived, expectSurvive, unexpected, time.Since(start).Seconds())
	if unexpected > 0 {
		return 1
	}
	return 0
}

// check reports a catalogue entry the runner cannot apply: Old not found
// exactly once, or a killer that is not a go test or go run of a package
// in the module with a Want pattern.
func (m mutant) check(root string) error {
	src, err := os.ReadFile(filepath.Join(root, m.File))
	if err != nil {
		return fmt.Errorf("%s: %v", m.Name, err)
	}
	if n := strings.Count(string(src), m.Old); n != 1 {
		return fmt.Errorf("%s: Old occurs %d times in %s, want exactly once", m.Name, n, m.File)
	}
	if len(m.Killers) == 0 {
		return fmt.Errorf("%s: no killers", m.Name)
	}
	for _, k := range m.Killers {
		if len(k.Argv) < 3 || k.Argv[0] != "go" || (k.Argv[1] != "test" && k.Argv[1] != "run") {
			return fmt.Errorf("%s: killer %q is not go test or go run", m.Name, k.Argv)
		}
		pkg := k.pkg()
		if pkg == "" {
			return fmt.Errorf("%s: killer %q names no ./ package", m.Name, k.Argv)
		}
		if fi, err := os.Stat(filepath.Join(root, pkg)); err != nil || !fi.IsDir() {
			return fmt.Errorf("%s: killer package %s does not exist", m.Name, pkg)
		}
		if k.Want == "" {
			return fmt.Errorf("%s: killer %q has no Want", m.Name, k.Argv)
		}
		if _, err := regexp.Compile(k.Want); err != nil {
			return fmt.Errorf("%s: killer Want: %v", m.Name, err)
		}
	}
	return nil
}

// mutated returns the contents of File with the mutant applied.
func (m mutant) mutated(root string) ([]byte, error) {
	src, err := os.ReadFile(filepath.Join(root, m.File))
	if err != nil {
		return nil, err
	}
	return []byte(strings.Replace(string(src), m.Old, m.New, 1)), nil
}

// writeOverlay writes the mutated file and a go -overlay file that puts
// it in place of File, both under dir, and returns the overlay's path.
func (m mutant) writeOverlay(root, dir string) (string, error) {
	src, err := m.mutated(root)
	if err != nil {
		return "", err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	file := filepath.Join(dir, filepath.Base(m.File))
	if err := os.WriteFile(file, src, 0o644); err != nil {
		return "", err
	}
	ov, err := json.Marshal(map[string]map[string]string{
		"Replace": {filepath.Join(root, m.File): file},
	})
	if err != nil {
		return "", err
	}
	overlay := filepath.Join(dir, "overlay.json")
	return overlay, os.WriteFile(overlay, ov, 0o644)
}

// pkg returns the killer's package argument, the first that starts "./".
func (k killer) pkg() string {
	for _, a := range k.Argv[2:] {
		if strings.HasPrefix(a, "./") {
			return a
		}
	}
	return ""
}

// kills runs the killer against the overlay. It reports whether it
// killed the mutant and, if not, why.
func (k killer) kills(root, overlay string) (bool, string) {
	argv := append([]string{k.Argv[0], k.Argv[1], "-overlay", overlay}, k.Argv[2:]...)
	out, err := goCmd(root, argv...)
	cmd := strings.Join(k.Argv, " ")
	var exit *exec.ExitError
	switch {
	case err == nil:
		return false, cmd + ": exit 0"
	case !errors.As(err, &exit):
		return false, fmt.Sprintf("%s: %v", cmd, err)
	case !regexp.MustCompile(k.Want).Match(out):
		return false, fmt.Sprintf("%s: %v, output does not match %q:\n%s", cmd, err, k.Want, tail(out, 15))
	}
	return true, ""
}

// goCmd runs argv in dir under killerTimeout and returns its combined
// output.
func goCmd(dir string, argv ...string) ([]byte, error) {
	ctx, cancel := context.WithTimeout(context.Background(), killerTimeout)
	defer cancel()
	var out bytes.Buffer
	cmd := exec.CommandContext(ctx, argv[0], argv[1:]...)
	cmd.Dir = dir
	cmd.Stdout, cmd.Stderr = &out, &out
	cmd.WaitDelay = 5 * time.Second
	err := cmd.Run()
	if ctx.Err() != nil {
		err = fmt.Errorf("timed out after %v", killerTimeout)
	}
	return out.Bytes(), err
}

// tail returns the last n lines of out.
func tail(out []byte, n int) string {
	lines := strings.Split(strings.TrimRight(string(out), "\n"), "\n")
	if len(lines) > n {
		lines = lines[len(lines)-n:]
	}
	return strings.Join(lines, "\n")
}
