package sat_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestEveryUnsatIsReported: the replay tests (internal/alive's
// TestProofReplayCorpus and TestProofReplaySession) check the Unsat
// answers the sink is told about, so Solve must have no way to answer
// Unsat that bypasses it — one return statement, inside Solver.unsat.
func TestEveryUnsatIsReported(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	returns := 0
	for _, f := range files {
		if strings.HasSuffix(f, "_test.go") {
			continue
		}
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		returns += strings.Count(string(src), "return Unsat")
	}
	if returns != 1 {
		t.Errorf("%d `return Unsat` statements in package sat, want the one in Solver.unsat", returns)
	}
}
