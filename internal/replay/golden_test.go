package replay_test

import (
	"flag"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/replay"
	"repro/internal/simcheck"
)

var update = flag.Bool("update", false, "regenerate golden .replay fixtures")

// goldenSpecs are the fixture recordings: one small torus hot-potato run
// and one PHOLD run, horizons shortened so the files stay a few KB.
func goldenSpecs() map[string]replay.Spec {
	hot := simcheck.SpecForCell(simcheck.Cell{
		Model: "hotpotato", PEs: 2, KPs: 8, Queue: "heap", Seed: 11,
	})
	hot.EndTime = 6
	phold := simcheck.SpecForCell(simcheck.Cell{
		Model: "phold", PEs: 2, KPs: 8, Queue: "heap", Seed: 11,
	})
	phold.EndTime = 8
	return map[string]replay.Spec{
		"hotpotato_torus.replay": hot,
		"phold.replay":           phold,
	}
}

// TestGoldenFixtures is the cross-session determinism check: fixtures
// recorded by a past build of this tree (regenerate with -update) must
// replay bit-for-bit today — every per-GVT-round prefix hash and the final
// fingerprint, under both the optimistic engine and the sequential oracle.
// A failure here means committed behaviour changed: either a determinism
// regression, or an intentional model/kernel change that needs -update and
// a changelog entry.
func TestGoldenFixtures(t *testing.T) {
	for name, spec := range goldenSpecs() {
		path := filepath.Join("testdata", name)
		if *update {
			lg, err := replay.Record(simcheck.Runner{}, spec)
			if err != nil {
				t.Fatalf("recording %s: %v", name, err)
			}
			if err := replay.WriteFile(path, lg); err != nil {
				t.Fatal(err)
			}
			t.Logf("regenerated %s: %d injections, %d rounds, %d committed",
				path, len(lg.Inject), len(lg.Rounds), lg.Final.Committed)
		}
		lg, err := replay.ReadFile(path)
		if err != nil {
			t.Fatalf("%s: %v (regenerate with -update)", path, err)
		}
		if len(lg.Inject) == 0 || len(lg.Rounds) == 0 {
			t.Fatalf("%s: empty fixture (%d injections, %d rounds)", path, len(lg.Inject), len(lg.Rounds))
		}
		for _, eng := range []core.EngineKind{core.KindOptimistic, core.KindSequential} {
			diffs, err := replay.Replay(simcheck.Runner{}, lg, eng)
			if err != nil {
				t.Fatalf("%s: %s replay: %v", name, eng, err)
			}
			for _, d := range diffs {
				t.Errorf("%s: %s replay diverged from fixture: %s", name, eng, d)
			}
		}
	}
}
