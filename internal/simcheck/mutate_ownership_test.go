package simcheck

import (
	"strings"
	"testing"

	"repro/internal/analysis/driver"
	"repro/internal/core"
)

// lintSelf runs the simlint driver over this package and returns every
// finding, waived included. The MutOwnership seeded bugs live in the
// source itself (ownershipNoise and publishCell in mutate.go), so their
// detector is the static analyzer suite, not the runtime oracle: the
// proof that the mutation "fires" is a waived finding on the seeded line,
// waived being exactly what keeps TestRepoIsClean green while the bug
// stays in-tree.
func lintSelf(t *testing.T) []driver.Finding {
	t.Helper()
	// Patterns resolve from the module root, not the test's directory.
	findings, err := driver.Run(".", false, "./internal/simcheck")
	if err != nil {
		t.Fatalf("simlint failed to run: %v", err)
	}
	return findings
}

// TestMutationOwnershipDetected: ownercheck must flag the seeded
// cross-slot write to peCounter.events — a goroutine-owned field stored
// outside its owner's methods, mirroring the use-after-free bug class the
// PE freelist annotations exist to prevent.
func TestMutationOwnershipDetected(t *testing.T) {
	found := false
	for _, f := range lintSelf(t) {
		if f.Analyzer == "ownercheck" && f.Waived &&
			strings.HasSuffix(f.Position.Filename, "mutate.go") &&
			strings.Contains(f.Message, "write to goroutine-owned field") &&
			strings.Contains(f.Message, "events") {
			found = true
			t.Logf("ownercheck caught the seeded bug: %s", f)
		}
	}
	if !found {
		t.Fatal("ownercheck did not flag the seeded cross-ownership write in ownershipNoise.Forward")
	}
}

// TestMutationPublishOrderDetected: atomiccheck must flag publishCell.leak
// storing the payload after the atomic guard that publishes it.
func TestMutationPublishOrderDetected(t *testing.T) {
	found := false
	for _, f := range lintSelf(t) {
		if f.Analyzer == "atomiccheck" && f.Waived &&
			strings.HasSuffix(f.Position.Filename, "mutate.go") &&
			strings.Contains(f.Message, "after the ready store") {
			found = true
			t.Logf("atomiccheck caught the seeded bug: %s", f)
		}
	}
	if !found {
		t.Fatal("atomiccheck did not flag the seeded publish-order bug in publishCell.leak")
	}
}

// TestMutationOwnershipRunsClean: arming the mutation in a live cell must
// not diverge — the ledger is diagnostic-only, per-LP slots are bumped
// only by their owners and the seeded write is confined to LP 0's
// goroutine, so the oracle sees identical committed histories (and -race
// sees nothing: the bug is a contract violation, not an actual race).
// (The detection happens statically, in the two tests above.)
func TestMutationOwnershipRunsClean(t *testing.T) {
	rep := Run(Matrix{
		Models:   []string{"phold"},
		Engines:  []core.EngineKind{core.KindOptimistic},
		PEs:      []int{2},
		KPs:      []int{8},
		Seeds:    []uint64{1},
		Mutation: MutOwnership,
	}, t.Logf)
	for _, d := range rep.Divergences {
		t.Errorf("%s", d)
	}
}
