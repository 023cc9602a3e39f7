package simcheck

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
)

// TestCheckKeepsFailingCheckpointDir: a checkpoint case that passes leaves
// no directory behind; one that diverges keeps its checkpoint directory
// under the artifact directory for post-mortem and names it.
func TestCheckKeepsFailingCheckpointDir(t *testing.T) {
	dir := t.TempDir()
	c := Cell{
		Model: "phold", Engine: core.KindOptimistic, PEs: 2, KPs: 8, Seed: 1,
		Faults: &core.Faults{Seed: 7, RollbackEvery: 1, RollbackDepth: 4, ShuffleMail: true},
	}
	if rep := Check(Cases(Case{Cell: c, Checkpoint: true}), dir, nil); !rep.OK() {
		t.Fatalf("clean checkpoint case failed:\n%v", rep.Divergences)
	}
	if _, err := os.Stat(filepath.Join(dir, "ckpt-ep0000")); !os.IsNotExist(err) {
		t.Fatalf("passing checkpoint case left its directory behind (stat: %v)", err)
	}

	c.Mutation = MutBrokenReverse
	rep := Check(Cases(Case{Index: 3, Cell: c, Checkpoint: true}), dir, nil)
	if len(rep.Divergences) != 1 {
		t.Fatalf("broken-reverse checkpoint case: %d divergences, want 1", len(rep.Divergences))
	}
	kept := filepath.Join(dir, "ckpt-ep0003")
	if d := rep.Divergences[0]; d.Index != 3 || !strings.Contains(d.String(), "checkpoint dir kept: "+kept) {
		t.Fatalf("divergence does not name the kept directory %s:\n%s", kept, d)
	}
	if _, err := os.Stat(kept); err != nil {
		t.Fatalf("failing checkpoint case's directory is gone: %v", err)
	}
}

// TestRunReportsUnknownModel: a caller that skips Validate still sees an
// unknown model as a divergence per (model, seed), never as a clean run of
// zero cells.
func TestRunReportsUnknownModel(t *testing.T) {
	rep := Run(Matrix{
		Models: []string{"nosuch"}, Engines: core.EngineKinds(),
		PEs: []int{2}, KPs: []int{4}, Seeds: []uint64{1, 2},
	}, nil)
	if len(rep.Divergences) != 2 {
		t.Fatalf("%d divergences, want one per seed: %v", len(rep.Divergences), rep.Divergences)
	}
	if d := rep.Divergences[0].String(); !strings.Contains(d, "unknown model") {
		t.Fatalf("divergence does not name the unknown model:\n%s", d)
	}
}
