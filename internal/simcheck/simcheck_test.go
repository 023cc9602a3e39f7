package simcheck

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/qnet"
)

// TestSmokeMatrix is the harness's positive control: the CI smoke matrix —
// all models and engines, clean and fault-injected — must report zero
// divergence, and the fault plans must demonstrably have fired.
func TestSmokeMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("matrix run in -short mode")
	}
	rep := Run(Smoke(), t.Logf)
	for _, d := range rep.Divergences {
		t.Errorf("%s", d)
	}
	if rep.Cells < 20 {
		t.Errorf("smoke matrix ran only %d cells", rep.Cells)
	}
	if rep.ForcedRollbacks == 0 {
		t.Error("smoke matrix includes fault plans but no forced rollback fired")
	}
}

// TestQNetMatrix covers the model the smoke matrix omits, under the
// heaviest fault plan.
func TestQNetMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("matrix run in -short mode")
	}
	rep := Run(Matrix{
		Models:  []string{"qnet"},
		Engines: core.EngineKinds(),
		PEs:     []int{2, 4},
		KPs:     []int{9},
		Seeds:   []uint64{3},
		Faults:  []*core.Faults{nil, DefaultFaults()},
	}, t.Logf)
	for _, d := range rep.Divergences {
		t.Errorf("%s", d)
	}
}

// TestMutationBrokenReverseDetected is the harness's negative control: with
// a Reverse handler that forgets odd LPs and a fault plan that forces
// rollbacks everywhere, the matrix MUST report a divergence, and the
// failure artifact must carry the cell (seed included) needed to reproduce
// it.
func TestMutationBrokenReverseDetected(t *testing.T) {
	rep := Run(Matrix{
		Models:   []string{"phold"},
		Engines:  []core.EngineKind{core.KindOptimistic},
		PEs:      []int{2},
		KPs:      []int{8},
		Seeds:    []uint64{1},
		Faults:   []*core.Faults{{Seed: 7, RollbackEvery: 1, RollbackDepth: 4, ShuffleMail: true}},
		Mutation: MutBrokenReverse,
	}, t.Logf)
	if rep.OK() {
		t.Fatal("seeded broken-reverse bug went undetected")
	}
	artifact := rep.Divergences[0].String()
	for _, want := range []string{"seed=1", "model=phold", "engine=optimistic", "mutation=broken-reverse"} {
		if !strings.Contains(artifact, want) {
			t.Errorf("failure artifact missing %q:\n%s", want, artifact)
		}
	}
}

// TestMutationBrokenPriorityDetected: inverting the hot-potato Sleeping
// upgrade comparison must change the committed trajectory even without any
// fault plan — almost every routed packet takes the wrong priority band.
func TestMutationBrokenPriorityDetected(t *testing.T) {
	rep := Run(Matrix{
		Models:   []string{"hotpotato"},
		Engines:  []core.EngineKind{core.KindOptimistic},
		PEs:      []int{2},
		KPs:      []int{8},
		Seeds:    []uint64{1},
		Mutation: MutBrokenPriority,
	}, t.Logf)
	if rep.OK() {
		t.Fatal("seeded broken-priority bug went undetected")
	}
	artifact := rep.Divergences[0].String()
	for _, want := range []string{"seed=1", "model=hotpotato", "mutation=broken-priority"} {
		if !strings.Contains(artifact, want) {
			t.Errorf("failure artifact missing %q:\n%s", want, artifact)
		}
	}
}

// TestMutationMapOrderDetected: folding map iteration order into state —
// the nondeterminism class simlint's determcheck rejects statically —
// must be caught dynamically too: the mutated run's committed state
// cannot match the clean reference.
func TestMutationMapOrderDetected(t *testing.T) {
	rep := Run(Matrix{
		Models:   []string{"phold"},
		Engines:  []core.EngineKind{core.KindOptimistic},
		PEs:      []int{2},
		KPs:      []int{8},
		Seeds:    []uint64{1},
		Mutation: MutMapOrder,
	}, t.Logf)
	if rep.OK() {
		t.Fatal("seeded map-order bug went undetected")
	}
	artifact := rep.Divergences[0].String()
	for _, want := range []string{"seed=1", "model=phold", "mutation=map-order"} {
		if !strings.Contains(artifact, want) {
			t.Errorf("failure artifact missing %q:\n%s", want, artifact)
		}
	}
}

// TestMutationsInvisibleToCleanCells: a mutated matrix still runs its
// reference un-mutated; this guards against the self-test passing because
// both sides carry the same bug.
func TestMutationsInvisibleToCleanCells(t *testing.T) {
	clean, err := RunCell(Cell{Model: "hotpotato", Engine: core.KindSequential, PEs: 1, KPs: 1, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	mutated, err := RunCell(Cell{Model: "hotpotato", Engine: core.KindSequential, PEs: 1, KPs: 1, Seed: 5, Mutation: MutBrokenPriority})
	if err != nil {
		t.Fatal(err)
	}
	if diffs := Compare(clean.FP, mutated.FP); len(diffs) == 0 {
		t.Fatal("broken-priority mutation had no effect even when armed (self-test would be vacuous)")
	}
	clean2, err := RunCell(Cell{Model: "hotpotato", Engine: core.KindSequential, PEs: 1, KPs: 1, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if diffs := Compare(clean.FP, clean2.FP); len(diffs) != 0 {
		t.Fatalf("identical clean cells diverged: %v", diffs)
	}
}

func TestRunCellRejectsBadInput(t *testing.T) {
	if _, err := RunCell(Cell{Model: "nosuch", Engine: core.KindSequential}); err == nil {
		t.Error("unknown model accepted")
	}
	if _, err := RunCell(Cell{Model: "qnet", Engine: core.KindConservative, PEs: 1, KPs: 1, Seed: 1}); err == nil {
		t.Error("qnet has no conservative builder; cell must be rejected")
	}
}

func TestCellStringIsReproductionRecipe(t *testing.T) {
	c := Cell{
		Model: "phold", Engine: core.KindOptimistic, PEs: 4, KPs: 16,
		Seed:     99,
		Faults:   &core.Faults{RollbackEvery: 2},
		Mutation: MutBrokenReverse,
	}
	s := c.String()
	for _, want := range []string{"model=phold", "engine=optimistic", "pes=4", "kps=16", "seed=99", "RollbackEvery:2", "mutation=broken-reverse"} {
		if !strings.Contains(s, want) {
			t.Errorf("cell artifact %q missing %q", s, want)
		}
	}
}

// TestDescribeQNet: the qnet describer renders a payload exactly as the
// default %v rendered Msg before it gained its HeadAfter commit scratch, so
// trace hashes stay what they were and ignore the scratch.
func TestDescribeQNet(t *testing.T) {
	type oldMsg struct {
		Kind       qnet.Kind
		EnqueuedAt core.Time
	}
	for _, m := range []*qnet.Msg{
		{Kind: qnet.KindArrive},
		{Kind: qnet.KindDepart, EnqueuedAt: 3.25, HeadAfter: 9},
	} {
		want := fmt.Sprintf("%v", &oldMsg{m.Kind, m.EnqueuedAt})
		if got := describeQNet(nil, &core.Event{Data: m}); got != want {
			t.Errorf("describeQNet(%+v) = %q, want %q", m, got, want)
		}
	}
}
