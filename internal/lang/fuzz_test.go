package lang

import (
	"os"
	"path/filepath"
	"testing"
)

// FuzzParse drives the cstar front end with arbitrary input: the parser
// must never panic, and any program it accepts must pretty-print to a
// fixed point (Parse ∘ Format idempotent — the printer emits canonical
// source the parser reads back identically).
func FuzzParse(f *testing.F) {
	paths, err := filepath.Glob(filepath.Join("..", "..", "testdata", "*.cstar"))
	if err != nil {
		f.Fatal(err)
	}
	if len(paths) == 0 {
		f.Fatal("no .cstar seeds under testdata/")
	}
	paths = append(paths, filepath.Join("..", "harness", "barnes.cstar")) // figure 4's program
	for _, p := range paths {
		src, err := os.ReadFile(p)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(src))
	}
	f.Add(jacobiSrc)
	f.Add("")
	f.Add("func main() { let x = 1; }")
	f.Add("aggregate A[,] { float v; }")
	f.Add("parallel func s(parallel g: A) { g.v = g[#0-1, #1].v; }")
	f.Add("for it in 0..50 { }")
	f.Add("// comment\n#0 #1 a..b <= != &&")

	f.Fuzz(func(t *testing.T, src string) {
		p, err := Parse(src)
		if err != nil {
			return // rejecting is fine; panicking is not
		}
		once := Format(p)
		p2, err := Parse(once)
		if err != nil {
			t.Fatalf("formatted output does not re-parse: %v\n--- formatted ---\n%s", err, once)
		}
		twice := Format(p2)
		if once != twice {
			t.Fatalf("Format not idempotent\n--- once ---\n%s\n--- twice ---\n%s", once, twice)
		}
	})
}
