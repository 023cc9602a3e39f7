package simcheck

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/replay"
)

// TestAutoRecordShrinksMutation is the shrinker's end-to-end self-test: a
// seeded map-order bug must (a) diverge in the matrix, (b) auto-record a
// .replay artifact, (c) shrink to at most half the original injections,
// and (d) still fail — replaying the shrunken log on the clean sequential
// oracle must disagree with the recorded (mutated) fingerprints.
func TestAutoRecordShrinksMutation(t *testing.T) {
	if testing.Short() {
		t.Skip("shrink run in -short mode")
	}
	dir := t.TempDir()
	rep := Run(Matrix{
		Models:     []string{"phold"},
		Engines:    []core.EngineKind{core.KindSequential, core.KindOptimistic},
		PEs:        []int{2},
		KPs:        []int{8},
		Seeds:      []uint64{1},
		Mutation:   MutMapOrder,
		AutoRecord: dir,
	}, t.Logf)
	if rep.OK() {
		t.Fatal("seeded map-order bug went undetected; nothing to record")
	}
	if len(rep.Artifacts) == 0 {
		t.Fatal("diverging optimistic cell produced no .replay artifact")
	}
	path := rep.Artifacts[0]
	if filepath.Dir(path) != dir {
		t.Errorf("artifact %s written outside AutoRecord dir %s", path, dir)
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("artifact missing on disk: %v", err)
	}

	lg, err := replay.ReadFile(path)
	if err != nil {
		t.Fatalf("artifact does not decode: %v", err)
	}
	if lg.Spec.Mutation != string(MutMapOrder) {
		t.Errorf("artifact mutation = %q, want %q", lg.Spec.Mutation, MutMapOrder)
	}
	// The full phold bootstrap is 64 LPs x population 2 = 128 injections;
	// the map-order bug fires on every processed event, so ddmin must cut
	// the log to at most half that (the acceptance bar) — in practice far
	// fewer.
	if len(lg.Inject) > 64 {
		t.Errorf("shrunken log keeps %d injections, want <= 64", len(lg.Inject))
	}
	t.Logf("shrunken artifact: %d injections, horizon %v", len(lg.Inject), lg.Spec.EndTime)

	// The minimal log must still fail: the clean sequential oracle replay
	// of the same injections cannot reproduce the mutated recording.
	diffs, err := Replay(lg, core.KindSequential)
	if err != nil {
		t.Fatalf("sequential replay of shrunken log errored: %v", err)
	}
	if len(diffs) == 0 {
		t.Error("shrunken log no longer fails: sequential oracle matched the mutated recording")
	}
}

// TestRecordVerifyCleanCell: recording a clean optimistic hot-potato cell
// and replaying it must reproduce every per-round prefix hash and the final
// fingerprint, on both engines. This is the tentpole's determinism claim in
// miniature (the golden-fixture test covers the cross-session variant).
func TestRecordVerifyCleanCell(t *testing.T) {
	spec := SpecForCell(Cell{
		Model: "hotpotato", Engine: core.KindOptimistic,
		PEs: 2, KPs: 8, Seed: 7,
	})
	lg, err := Record(spec)
	if err != nil {
		t.Fatalf("record: %v", err)
	}
	if len(lg.Inject) == 0 {
		t.Fatal("recording captured no injections")
	}
	if len(lg.Rounds) == 0 {
		t.Fatal("recording captured no GVT rounds")
	}
	for _, eng := range []core.EngineKind{core.KindOptimistic, core.KindSequential} {
		diffs, err := Replay(lg, eng)
		if err != nil {
			t.Fatalf("%s replay: %v", eng, err)
		}
		for _, d := range diffs {
			t.Errorf("%s replay diverged: %s", eng, d)
		}
	}
}

// TestRunnerRejectsUnknownSpecs: the replay drivers must fail loudly, not
// build a half-configured cell, when a log names a model or mutation this
// build does not know (e.g. an artifact from a newer tree).
func TestRunnerRejectsUnknownSpecs(t *testing.T) {
	for _, tc := range []struct {
		spec replay.Spec
		eng  core.EngineKind
		want string
	}{
		{replay.Spec{Model: "nonesuch", PEs: 1, KPs: 1}, core.KindSequential, "unknown model"},
		{SpecForCell(Cell{Model: "phold", Mutation: "nonesuch", PEs: 2, KPs: 8}), core.KindOptimistic, "unknown mutation"},
		{SpecForCell(Cell{Model: "qnet", PEs: 2, KPs: 6}), core.KindConservative, "does not support engine"},
	} {
		_, err := Replay(&replay.Log{Spec: tc.spec}, tc.eng)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s on %s: err = %v, want %q", tc.spec.Model, tc.eng, err, tc.want)
		}
	}
}
