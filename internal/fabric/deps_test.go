package fabric_test

import (
	"go/build"
	"path/filepath"
	"strings"
	"testing"
)

// The live path carries no simulator types: the fabric contract and the
// live rails build without the analytic model (internal/model), which
// belongs to the simulator, the figures and the sampling of modeled rails.
// A rail says what it is (fabric.Caps); what it costs elapses on its clock.
func TestLivePathHasNoModel(t *testing.T) {
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	const model = "repro/internal/model"
	for _, pkg := range []string{"internal/fabric", "internal/railcore", "internal/livenet", "internal/shmnet"} {
		if chain := importChain(t, root, "repro/"+pkg, model, map[string]bool{}); chain != nil {
			t.Errorf("%s depends on %s: %s", pkg, model, strings.Join(chain, " -> "))
		}
	}
}

// importChain returns the chain of non-test imports from one package of
// the module to target, or nil when there is none.
func importChain(t *testing.T, root, from, target string, seen map[string]bool) []string {
	if from == target {
		return []string{from}
	}
	if seen[from] {
		return nil
	}
	seen[from] = true
	p, err := build.ImportDir(filepath.Join(root, strings.TrimPrefix(from, "repro/")), 0)
	if err != nil {
		t.Fatalf("%s: %v", from, err)
	}
	for _, imp := range p.Imports {
		if !strings.HasPrefix(imp, "repro/") {
			continue
		}
		if chain := importChain(t, root, imp, target, seen); chain != nil {
			return append([]string{from}, chain...)
		}
	}
	return nil
}
