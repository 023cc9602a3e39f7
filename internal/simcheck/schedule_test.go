package simcheck

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/replay"
)

// TestScheduleDiversity: the generator must actually exercise the space it
// claims — multiple PE shapes, conservative episodes, fault compositions of
// depth >= 2, and memory-bounded cells — within a modest episode count, and
// rotate through every model.
func TestScheduleDiversity(t *testing.T) {
	models := ModelNames()
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
		ep := nextEpisode(src, i, models, MutNone, true)
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

// soakSeed7 is the schedule `soaktest -seed 7` runs: its first 16 drawn
// episodes, one "cell ckpt=flag" line each.
const soakSeed7 = `
model=hotpotato engine=conservative pes=3 kps=4 seed=2914993397 paranoid ckpt=false
model=phold engine=optimistic pes=3 kps=8 seed=1014780411 faults={Seed:481432487 RollbackEvery:0 RollbackDepth:0 GVTDelay:0 ShuffleMail:false MailBurst:3 ThrottlePEs:0 ThrottleBatch:0} paranoid ckpt=false
model=qnet engine=optimistic pes=4 kps=16 seed=1172304949 faults={Seed:3904667673 RollbackEvery:0 RollbackDepth:0 GVTDelay:0 ShuffleMail:false MailBurst:0 ThrottlePEs:1 ThrottleBatch:1} paranoid ckpt=false
model=hotpotato engine=optimistic pes=1 kps=8 seed=27616547 faults={Seed:528559623 RollbackEvery:2 RollbackDepth:4 GVTDelay:0 ShuffleMail:true MailBurst:0 ThrottlePEs:0 ThrottleBatch:0} paranoid ckpt=false
model=phold engine=optimistic pes=1 kps=4 seed=4053432411 faults={Seed:700609421 RollbackEvery:0 RollbackDepth:0 GVTDelay:2 ShuffleMail:false MailBurst:0 ThrottlePEs:0 ThrottleBatch:0} paranoid ckpt=false
model=qnet engine=optimistic pes=4 kps=8 seed=2013531851 faults={Seed:2754184559 RollbackEvery:1 RollbackDepth:5 GVTDelay:0 ShuffleMail:false MailBurst:0 ThrottlePEs:1 ThrottleBatch:1} paranoid ckpt=false
model=hotpotato engine=optimistic pes=2 kps=8 seed=1981544975 faults={Seed:2372518161 RollbackEvery:4 RollbackDepth:2 GVTDelay:0 ShuffleMail:false MailBurst:0 ThrottlePEs:0 ThrottleBatch:0} paranoid ckpt=false
model=phold engine=optimistic pes=2 kps=4 seed=340821365 faults={Seed:3306372985 RollbackEvery:0 RollbackDepth:0 GVTDelay:0 ShuffleMail:true MailBurst:4 ThrottlePEs:0 ThrottleBatch:0} paranoid ckpt=false
model=qnet engine=optimistic pes=4 kps=16 seed=654106951 faults={Seed:1392362841 RollbackEvery:0 RollbackDepth:0 GVTDelay:0 ShuffleMail:false MailBurst:2 ThrottlePEs:0 ThrottleBatch:0} paranoid ckpt=false
model=hotpotato engine=optimistic pes=2 kps=8 seed=549160639 faults={Seed:590925355 RollbackEvery:0 RollbackDepth:0 GVTDelay:0 ShuffleMail:false MailBurst:5 ThrottlePEs:0 ThrottleBatch:0} paranoid ckpt=false
model=phold engine=optimistic pes=4 kps=4 seed=829181639 faults={Seed:1074752413 RollbackEvery:0 RollbackDepth:0 GVTDelay:0 ShuffleMail:false MailBurst:0 ThrottlePEs:1 ThrottleBatch:2} paranoid ckpt=false
model=qnet engine=optimistic pes=2 kps=16 seed=3118583383 faults={Seed:3819833707 RollbackEvery:0 RollbackDepth:0 GVTDelay:0 ShuffleMail:true MailBurst:0 ThrottlePEs:0 ThrottleBatch:0} paranoid ckpt=false
model=hotpotato engine=optimistic pes=1 kps=8 seed=1061122223 faults={Seed:3833191153 RollbackEvery:3 RollbackDepth:3 GVTDelay:4 ShuffleMail:true MailBurst:0 ThrottlePEs:0 ThrottleBatch:0} maxlive=12 paranoid ckpt=false
model=phold engine=conservative pes=3 kps=8 seed=2267678541 paranoid ckpt=false
model=qnet engine=optimistic pes=1 kps=16 seed=2272780301 maxlive=15 paranoid ckpt=false
model=hotpotato engine=optimistic pes=2 kps=8 seed=707947771 faults={Seed:1743294817 RollbackEvery:0 RollbackDepth:0 GVTDelay:0 ShuffleMail:true MailBurst:0 ThrottlePEs:1 ThrottleBatch:2} paranoid ckpt=false
`

// TestSoakSchedulePinned pins the schedule across builds, where
// TestSoakReproducible only compares one build with itself: a refactor
// that reorders, adds or drops a draw changes what every seed means, and
// fails here. Only the recipes are pinned, not results, so a model change
// leaves this test alone.
func TestSoakSchedulePinned(t *testing.T) {
	next := Soak{Seed: 7, Episodes: 16, Paranoid: true}.Schedule()
	var b strings.Builder
	for k, ok := next(); ok; k, ok = next() {
		fmt.Fprintf(&b, "%s ckpt=%v\n", k.Cell, k.Checkpoint)
	}
	if got, want := b.String(), strings.TrimPrefix(soakSeed7, "\n"); got != want {
		t.Fatalf("seed 7 schedule changed:\ngot:\n%swant:\n%s", got, want)
	}
}

// TestSoakReproducible: two runs of the same seed must execute the same
// schedule and land on the same report fingerprint — the property the
// nightly soak's failure reports depend on.
func TestSoakReproducible(t *testing.T) {
	s := Soak{Seed: 11, Episodes: 6, Paranoid: true}
	a := Check(s.Schedule(), "", nil)
	b := Check(s.Schedule(), "", nil)
	if !a.OK() {
		t.Fatalf("clean soak failed:\n%v", a.Divergences)
	}
	if a.Cases != 6 || a.Cells != 12 {
		t.Fatalf("episodes=%d cells=%d, want 6/12", a.Cases, a.Cells)
	}
	if a.Fingerprint != b.Fingerprint {
		t.Fatalf("same seed, different fingerprints: %016x vs %016x", a.Fingerprint, b.Fingerprint)
	}
	if c := Check(Soak{Seed: 12, Episodes: 6, Paranoid: true}.Schedule(), "", nil); c.Fingerprint == a.Fingerprint {
		t.Fatalf("different seeds, same fingerprint %016x", a.Fingerprint)
	}
}

// TestSoakWallBudget: a wall-clock budget must stop the loop and still run
// at least one episode.
func TestSoakWallBudget(t *testing.T) {
	rep := Check(Soak{Seed: 5, Wall: 1}.Schedule(), "", nil) // 1ns: expires after episode 0
	if rep.Cases < 1 {
		t.Fatal("wall-budgeted soak ran zero episodes")
	}
	if rep.Cases > 2 {
		t.Fatalf("1ns wall budget ran %d episodes", rep.Cases)
	}
}

// TestSoakMutationFailsAndShrinks is the harness self-test demanded by the
// soak's reason for existing: armed with a seeded nondeterminism bug, the
// soak must fail, auto-record, and emit a .replay artifact that still
// demonstrates the failure under cmd/replay's verify mode.
func TestSoakMutationFailsAndShrinks(t *testing.T) {
	dir := t.TempDir()
	rep := Check(Soak{
		Seed:     21,
		Episodes: 2,
		Models:   []string{"phold"},
		Mutation: MutMapOrder,
		Paranoid: true,
	}.Schedule(), dir, nil)
	if rep.OK() {
		t.Fatal("mutation-armed soak reported success")
	}
	if len(rep.Artifacts) == 0 {
		t.Fatalf("no .replay artifacts recorded; failures: %v", rep.Divergences)
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
	diverged, err := Replay(lg, core.KindSequential)
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
		diverged, err = Replay(lg, core.KindOptimistic)
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
// any episode runs; both front-ends call Validate first.
func TestSoakBadConfig(t *testing.T) {
	if err := Validate([]string{"phold", "nope"}, MutNone); err == nil {
		t.Fatal("unknown model accepted")
	}
	if err := Validate(nil, "nope"); err == nil {
		t.Fatal("unknown mutation accepted")
	}
	if err := Validate(ModelNames(), MutOwnership); err != nil {
		t.Fatalf("known names rejected: %v", err)
	}
}

// TestSoakReusedArtifactDir: a crash-recovery episode whose checkpoint
// directory survives under the artifact directory from an earlier run (a
// failing episode keeps it) must start from an empty directory rather
// than resume the kept checkpoint as its own.
func TestSoakReusedArtifactDir(t *testing.T) {
	dir := t.TempDir()
	other := Cell{Model: "qnet", Engine: core.KindOptimistic, PEs: 4, KPs: 8, Seed: 9}
	if _, err := RunCellResumed(other, filepath.Join(dir, "ckpt-ep0000"), 0); err != nil {
		t.Fatalf("leaving a checkpoint behind [%s]: %v", other, err)
	}
	c := Cell{
		Model: "qnet", Engine: core.KindOptimistic, PEs: 1, KPs: 2, Seed: 3,
		Faults: DefaultFaults(),
	}
	rep := Check(Cases(Case{Index: 0, Cell: c, Checkpoint: true}), dir, nil)
	if !rep.OK() {
		t.Fatalf("episode in a reused artifact directory failed:\n%v", rep.Divergences)
	}
}
