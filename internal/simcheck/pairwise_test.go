package simcheck

// Pairwise fault-composition tests: every pair of kernel fault injectors
// (core/faults.go) composed into one plan and run in a short optimistic
// cell against the sequential oracle. Single-injector cells are exercised
// by the standing matrices; pairs are where injector interactions live
// (e.g. MailBurst holding the anti-messages a forced rollback emits while
// GVTDelay stretches the speculation horizon they must chase). CI runs
// this under -race, where the interleavings the compositions force are
// also checked for data races.

import (
	"fmt"
	"testing"

	"repro/internal/core"
)

// TestPairwiseFaultComposition runs each of the C(5,2) injector pairs in
// one optimistic cell per bundled model family, asserting zero divergence
// from the clean sequential reference.
func TestPairwiseFaultComposition(t *testing.T) {
	inj := Injectors()
	// Models alternate per pair so every injector pair meets both the
	// routing-heavy and the uniform-traffic workload over the suite
	// without doubling its runtime.
	modelNames := []string{"hotpotato", "phold"}
	const seed = 42

	refs := make(map[string]Result)
	for _, model := range modelNames {
		ref, err := RunCell(Cell{Model: model, Engine: core.KindSequential, PEs: 1, KPs: 1, Queue: "heap", Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		refs[model] = ref
	}

	pair := 0
	for i := 0; i < len(inj); i++ {
		for j := i + 1; j < len(inj); j++ {
			model := modelNames[pair%len(modelNames)]
			pair++
			name := fmt.Sprintf("%s+%s/%s", inj[i].Name, inj[j].Name, model)
			t.Run(name, func(t *testing.T) {
				f := &core.Faults{Seed: 0xFA17 + uint64(i*8+j)}
				inj[i].Arm(f, 1)
				inj[j].Arm(f, 1)
				c := Cell{
					Model: model, Engine: core.KindOptimistic,
					PEs: 2, KPs: 8, Queue: "heap", Seed: seed,
					Faults: f, Paranoid: true,
				}
				got, err := RunCell(c)
				if err != nil {
					t.Fatalf("run failed: %v", err)
				}
				if diffs := compare(refs[model].FP, got.FP); len(diffs) > 0 {
					t.Errorf("composition diverged from sequential oracle: %v", diffs)
				}
			})
		}
	}
	if want := len(inj) * (len(inj) - 1) / 2; pair != want {
		t.Fatalf("ran %d pairs, want %d", pair, want)
	}
}
