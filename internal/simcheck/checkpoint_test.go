package simcheck

import (
	"errors"
	"testing"

	"repro/internal/core"
	"repro/internal/replay"
)

// TestRunCellResumedMatchesSequential is the checkpoint/resume differential:
// for every model, an optimistic run split across a checkpoint/restore cut
// must compose to exactly the fingerprint a clean sequential run commits. It also proves the cut was real — the resumed
// phase commits strictly fewer events than the whole run, and the published
// checkpoint sits strictly inside the horizon.
func TestRunCellResumedMatchesSequential(t *testing.T) {
	for _, model := range ModelNames() {
		t.Run(model, func(t *testing.T) {
			t.Parallel()
			refCell := Cell{Model: model, Engine: core.KindSequential, PEs: 1, KPs: 1, Queue: "heap", Seed: 42}
			ref, err := RunCell(refCell)
			if err != nil {
				t.Fatalf("reference run: %v", err)
			}
			c := Cell{
				Model: model, Engine: core.KindOptimistic,
				PEs: 4, KPs: 8, Queue: "heap", Seed: 42,
			}
			dir := t.TempDir()
			res, err := RunCellResumed(c, dir, 0)
			if err != nil {
				t.Fatalf("resumed run [%s]: %v", c, err)
			}
			if diffs := Compare(ref.FP, res.FP); len(diffs) > 0 {
				t.Fatalf("resumed fingerprint diverges from sequential reference [%s]:\n%v", c, diffs)
			}
			// The resume must have skipped a committed prefix, not re-run
			// the whole workload.
			if res.Stats.Committed >= res.FP.Committed {
				t.Fatalf("resumed phase committed %d of %d events — nothing was restored",
					res.Stats.Committed, res.FP.Committed)
			}
			cp, err := replay.LoadCheckpoint(dir)
			if err != nil {
				t.Fatalf("load checkpoint: %v", err)
			}
			if cp.GVT <= 0 {
				t.Fatalf("checkpoint GVT %v is not mid-run", cp.GVT)
			}
			if cp.Committed <= 0 {
				t.Fatalf("checkpoint committed count %d is not mid-run", cp.Committed)
			}
		})
	}
}

// TestRunCellResumedUnderFaults holds the checkpoint/resume cut to the
// sequential oracle while the kernel's fault injectors are hammering the
// run: forced rollbacks and shuffled delivery must not leak into what a
// checkpoint captures.
func TestRunCellResumedUnderFaults(t *testing.T) {
	refCell := Cell{Model: "hotpotato", Engine: core.KindSequential, PEs: 1, KPs: 1, Queue: "heap", Seed: 7}
	ref, err := RunCell(refCell)
	if err != nil {
		t.Fatalf("reference run: %v", err)
	}
	c := Cell{
		Model: "hotpotato", Engine: core.KindOptimistic,
		PEs: 4, KPs: 8, Queue: "heap", Seed: 7,
		Faults: DefaultFaults(),
	}
	res, err := RunCellResumed(c, t.TempDir(), 0)
	if err != nil {
		t.Fatalf("resumed run [%s]: %v", c, err)
	}
	if diffs := Compare(ref.FP, res.FP); len(diffs) > 0 {
		t.Fatalf("resumed fingerprint diverges under faults [%s]:\n%v", c, diffs)
	}
}

// TestRunCellResumedNothingDue: a run that ends before its first checkpoint
// falls due (the soak harness meets this on 1-PE qnet cells under the
// GVTDelay fault) leaves an empty directory. That is "nothing to resume",
// not a failure: the uninterrupted run is held to the oracle instead.
func TestRunCellResumedNothingDue(t *testing.T) {
	ref, err := RunCell(Cell{Model: "qnet", Engine: core.KindSequential, PEs: 1, KPs: 1, Queue: "heap", Seed: 3})
	if err != nil {
		t.Fatalf("reference run: %v", err)
	}
	c := Cell{Model: "qnet", Engine: core.KindOptimistic, PEs: 1, KPs: 2, Queue: "heap", Seed: 3, Faults: DefaultFaults()}
	dir := t.TempDir()
	res, err := RunCellResumed(c, dir, 1<<30)
	if err != nil {
		t.Fatalf("run with no checkpoint due [%s]: %v", c, err)
	}
	if _, err := replay.LoadCheckpoint(dir); !errors.Is(err, replay.ErrNoCheckpoint) {
		t.Fatalf("LoadCheckpoint = %v, want ErrNoCheckpoint: the cadence was meant to publish nothing", err)
	}
	if diffs := Compare(ref.FP, res.FP); len(diffs) > 0 {
		t.Fatalf("uninterrupted fingerprint diverges from sequential reference [%s]:\n%v", c, diffs)
	}
	if res.Stats.Committed != res.FP.Committed {
		t.Fatalf("phase committed %d of %d events, want the whole run", res.Stats.Committed, res.FP.Committed)
	}
}
