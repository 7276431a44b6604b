package analysis

import (
	"path/filepath"
	"testing"
)

// TestVetABR runs the full vetabr suite over the repository's own source
// as part of go test ./..., making the simulator-determinism and
// unit-safety invariants a tier-1 gate: any unsuppressed warning anywhere
// in the tree fails the build.
func TestVetABR(t *testing.T) {
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	findings, err := RunDir(root, DefaultAnalyzers())
	if err != nil {
		t.Fatal(err)
	}
	RelFindings(root, findings)
	for _, f := range findings {
		if f.Severity == Warning {
			t.Errorf("%s", f)
		} else {
			t.Logf("%s", f)
		}
	}
}
