package soak

import (
	"math/rand"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/replay"
	"repro/internal/simcheck"
)

// TestScheduleDiversity: the generator must actually exercise the space it
// claims — multiple PE shapes, conservative episodes, fault compositions of
// depth >= 2, and memory-bounded cells — within a modest episode count, and
// rotate through every model.
func TestScheduleDiversity(t *testing.T) {
	models := simcheck.ModelNames()
	src := rand.New(rand.NewSource(3))
	const n = 64
	var (
		modelCount   = map[string]int{}
		conservative int
		pes          = map[int]int{}
		bounded      int
		composed     int
	)
	for i := 0; i < n; i++ {
		ep := nextEpisode(src, i, models, simcheck.MutNone, true)
		c := ep.Cell
		modelCount[c.Model]++
		pes[c.PEs]++
		if c.Engine == core.KindConservative {
			conservative++
			if c.Faults != nil || c.MaxLive > 0 {
				t.Fatalf("episode %d: conservative cell carries optimistic knobs: %s", i, c)
			}
		}
		if c.MaxLive > 0 {
			bounded++
		}
		if f := c.Faults; f != nil {
			mechanisms := 0
			if f.RollbackEvery > 0 {
				mechanisms++
			}
			if f.GVTDelay > 0 {
				mechanisms++
			}
			if f.ShuffleMail {
				mechanisms++
			}
			if f.MailBurst > 0 {
				mechanisms++
			}
			if f.ThrottlePEs > 0 {
				mechanisms++
			}
			if mechanisms >= 2 {
				composed++
			}
			if f.Seed == 0 {
				t.Fatalf("episode %d: armed fault plan with zero seed", i)
			}
		}
		if !c.Paranoid {
			t.Fatalf("episode %d: paranoid flag dropped", i)
		}
	}
	for _, m := range models {
		if modelCount[m] == 0 {
			t.Fatalf("model %s never scheduled in %d episodes", m, n)
		}
	}
	if len(pes) < 3 {
		t.Fatalf("PE shapes too uniform: %v", pes)
	}
	if conservative == 0 {
		t.Fatalf("no conservative episodes in %d", n)
	}
	if bounded == 0 {
		t.Fatalf("no memory-bounded episodes in %d", n)
	}
	if composed == 0 {
		t.Fatalf("no composed (>=2 injector) fault plans in %d", n)
	}
}

// TestSoakReproducible: two runs of the same seed must execute the same
// schedule and land on the same report fingerprint — the property the
// nightly soak's failure reports depend on.
func TestSoakReproducible(t *testing.T) {
	cfg := Config{Seed: 11, Episodes: 6, Paranoid: true}
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !a.OK() {
		t.Fatalf("clean soak failed:\n%v", a.Failures)
	}
	if a.Episodes != 6 || a.Cells != 12 {
		t.Fatalf("episodes=%d cells=%d, want 6/12", a.Episodes, a.Cells)
	}
	if a.Fingerprint != b.Fingerprint {
		t.Fatalf("same seed, different fingerprints: %016x vs %016x", a.Fingerprint, b.Fingerprint)
	}
	if c, err := Run(Config{Seed: 12, Episodes: 6, Paranoid: true}); err != nil {
		t.Fatal(err)
	} else if c.Fingerprint == a.Fingerprint {
		t.Fatalf("different seeds, same fingerprint %016x", a.Fingerprint)
	}
}

// TestSoakWallBudget: a wall-clock budget must stop the loop and still run
// at least one episode.
func TestSoakWallBudget(t *testing.T) {
	rep, err := Run(Config{Seed: 5, Wall: 1}) // 1ns: expires after episode 0
	if err != nil {
		t.Fatal(err)
	}
	if rep.Episodes < 1 {
		t.Fatal("wall-budgeted soak ran zero episodes")
	}
	if rep.Episodes > 2 {
		t.Fatalf("1ns wall budget ran %d episodes", rep.Episodes)
	}
}

// TestSoakMutationFailsAndShrinks is the harness self-test demanded by the
// soak's reason for existing: armed with a seeded nondeterminism bug, the
// soak must fail, auto-record, and emit a .replay artifact that still
// demonstrates the failure under cmd/replay's verify mode.
func TestSoakMutationFailsAndShrinks(t *testing.T) {
	dir := t.TempDir()
	rep, err := Run(Config{
		Seed:        21,
		Episodes:    2,
		Models:      []string{"phold"},
		Mutation:    simcheck.MutMapOrder,
		ArtifactDir: dir,
		Paranoid:    true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.OK() {
		t.Fatal("mutation-armed soak reported success")
	}
	if len(rep.Artifacts) == 0 {
		t.Fatalf("no .replay artifacts recorded; failures: %v", rep.Failures)
	}
	path := rep.Artifacts[0]
	if filepath.Dir(path) != dir {
		t.Fatalf("artifact %s not under %s", path, dir)
	}
	lg, err := replay.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// The sequential oracle is the shrinker's own predicate and is
	// deterministic: the artifact must fail it every time.
	diverged, err := simcheck.Replay(lg, core.KindSequential)
	if err != nil {
		t.Fatal(err)
	}
	if len(diverged) == 0 {
		t.Fatalf("shrunk artifact %s no longer fails the sequential oracle", path)
	}
	// verify mode = optimistic re-run against the recording. The map-order
	// noise is genuinely nondeterministic, so a heavily shrunk log can
	// collide with the recording on a given run (~5% observed); a few
	// attempts must still surface the divergence.
	for attempt := 0; ; attempt++ {
		diverged, err = simcheck.Replay(lg, core.KindOptimistic)
		if err != nil {
			t.Fatal(err)
		}
		if len(diverged) > 0 {
			break
		}
		if attempt == 4 {
			t.Fatalf("shrunk artifact %s never failed verify in %d runs", path, attempt+1)
		}
	}
}

// TestSoakBadConfig: unknown models and mutations must be rejected before
// any episode runs.
func TestSoakBadConfig(t *testing.T) {
	if _, err := Run(Config{Models: []string{"nope"}}); err == nil {
		t.Fatal("unknown model accepted")
	}
	if _, err := Run(Config{Mutation: "nope"}); err == nil {
		t.Fatal("unknown mutation accepted")
	}
}

// TestSoakReusedArtifactDir: a crash-recovery episode whose checkpoint
// directory survives under the artifact directory from an earlier run (a
// failing episode keeps it) must start from an empty directory rather
// than resume the kept checkpoint as its own.
func TestSoakReusedArtifactDir(t *testing.T) {
	dir := t.TempDir()
	other := simcheck.Cell{Model: "qnet", Engine: core.KindOptimistic, PEs: 4, KPs: 8, Seed: 9}
	if _, err := simcheck.RunCellResumed(other, filepath.Join(dir, "ckpt-ep0000"), 0); err != nil {
		t.Fatalf("leaving a checkpoint behind [%s]: %v", other, err)
	}
	c := simcheck.Cell{
		Model: "qnet", Engine: core.KindOptimistic, PEs: 1, KPs: 2, Seed: 3,
		Faults: simcheck.DefaultFaults(),
	}
	rep := RunEpisodes([]Episode{{Index: 0, Cell: c, Checkpoint: true}}, Config{ArtifactDir: dir})
	if !rep.OK() {
		t.Fatalf("episode in a reused artifact directory failed:\n%v", rep.Failures)
	}
}
