package main

import (
	"bytes"
	"go/parser"
	"go/token"
	"path/filepath"
	"regexp"
	"testing"
)

// moduleRoot is the module the catalogue mutates, seen from this package.
const moduleRoot = "../.."

// TestCatalogueApplies checks every entry against the tree without
// running it: Old matches exactly once, and every killer is a go test or
// go run of a package that exists, with a Want pattern.
func TestCatalogueApplies(t *testing.T) {
	for _, m := range catalogue {
		if err := m.check(moduleRoot); err != nil {
			t.Error(err)
		}
	}
}

// TestCatalogueMutantsParse: each mutated file is still Go, so a mutant
// that the runner's build rejects is a type error, not a typo.
func TestCatalogueMutantsParse(t *testing.T) {
	for _, m := range catalogue {
		src, err := m.mutated(moduleRoot)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := parser.ParseFile(token.NewFileSet(), m.File, src, 0); err != nil {
			t.Errorf("%s: mutated %s does not parse: %v", m.Name, m.File, err)
		}
	}
}

func TestCatalogueNamesUnique(t *testing.T) {
	seen := map[string]bool{}
	for _, m := range catalogue {
		if seen[m.Name] {
			t.Errorf("mutant name %s repeats", m.Name)
		}
		seen[m.Name] = true
	}
}

// The fixture module's mutants: Add is tested, Double only at 2.
var (
	addNegated = mutant{
		Name: "add-negated", File: "calc.go", Old: "return a + b", New: "return a - b",
		Killers: []killer{{Argv: []string{"go", "test", "./", "-run", "TestAdd$"}, Want: `Add\(2, 3\) = -1, want 5`}},
	}
	doubleAdds = mutant{
		Name: "double-adds", File: "calc.go", Old: "return a * 2", New: "return a + 2",
		Killers:  []killer{{Argv: []string{"go", "test", "./", "-run", "TestDouble$"}, Want: `--- FAIL`}},
		Survives: "TestDouble checks only 2",
	}
	// The killer fails, but not with the failure it names.
	wrongWant = mutant{
		Name: "wrong-want", File: "calc.go", Old: "return a + b", New: "return a * b",
		Killers: []killer{{Argv: []string{"go", "test", "./", "-run", "TestAdd$"}, Want: `Double`}},
	}
	noMatch = mutant{
		Name: "no-match", File: "calc.go", Old: "a / b", New: "b / a",
		Killers: addNegated.Killers,
	}
	noBuild = mutant{
		Name: "no-build", File: "calc.go", Old: "return a + b", New: "return a + c",
		Killers: addNegated.Killers,
	}
)

// TestRunnerVerdicts runs the fixture module through the runner: a kill
// and an expected survivor pass; a killer that fails for another reason
// is no kill; a stale Old or a mutant that does not build is a catalogue
// error.
func TestRunnerVerdicts(t *testing.T) {
	fixture := filepath.Join("testdata", "fixture")
	for _, tc := range []struct {
		name string
		ms   []mutant
		code int
		want string
	}{
		{"killed and survived", []mutant{addNegated, doubleAdds}, 0,
			`(?m)^killed +add-negated +1/1 killers.*\n^survived +double-adds .*expected survivor: TestDouble checks only 2.*\n^mutate: 1/2 killed, 1 survived \(1 expected\), 0 unexpected`},
		{"want not matched", []mutant{wrongWant}, 1, `(?m)^UNEXPECTED survived +wrong-want(.|\n)*output does not match "Double"`},
		{"no match", []mutant{addNegated, noMatch}, 2, `no-match: Old occurs 0 times in calc.go`},
		{"does not build", []mutant{noBuild}, 2, `no-build does not build`},
	} {
		var out bytes.Buffer
		code := run(fixture, tc.ms, &out)
		if code != tc.code || !regexp.MustCompile(tc.want).Match(out.Bytes()) {
			t.Errorf("%s: exit %d, want %d, and output matching %q:\n%s", tc.name, code, tc.code, tc.want, out.String())
		}
	}
}
