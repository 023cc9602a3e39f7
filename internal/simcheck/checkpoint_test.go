package simcheck

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/phold"
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
			refCell := Cell{Model: model, Engine: core.KindSequential, PEs: 1, KPs: 1, Seed: 42}
			ref, err := RunCell(refCell)
			if err != nil {
				t.Fatalf("reference run: %v", err)
			}
			c := Cell{
				Model: model, Engine: core.KindOptimistic,
				PEs: 4, KPs: 8, Seed: 42,
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
	refCell := Cell{Model: "hotpotato", Engine: core.KindSequential, PEs: 1, KPs: 1, Seed: 7}
	ref, err := RunCell(refCell)
	if err != nil {
		t.Fatalf("reference run: %v", err)
	}
	c := Cell{
		Model: "hotpotato", Engine: core.KindOptimistic,
		PEs: 4, KPs: 8, Seed: 7,
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
// falls due (the soak schedule meets this on 1-PE qnet cells under the
// GVTDelay fault) leaves an empty directory. That is "nothing to resume",
// not a failure: the uninterrupted run is held to the oracle instead.
func TestRunCellResumedNothingDue(t *testing.T) {
	ref, err := RunCell(Cell{Model: "qnet", Engine: core.KindSequential, PEs: 1, KPs: 1, Seed: 3})
	if err != nil {
		t.Fatalf("reference run: %v", err)
	}
	c := Cell{Model: "qnet", Engine: core.KindOptimistic, PEs: 1, KPs: 2, Seed: 3, Faults: DefaultFaults()}
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

// TestRunCellResumedRefusesStaleCheckpoint: a directory that already holds
// another run's published checkpoint must be refused. Phase one of this
// cell publishes nothing (the cadence never falls due), so resuming from
// whatever the directory held would run the other run's tail and report
// its fingerprint as this cell's.
func TestRunCellResumedRefusesStaleCheckpoint(t *testing.T) {
	dir := t.TempDir()
	other := Cell{Model: "qnet", Engine: core.KindOptimistic, PEs: 4, KPs: 8, Seed: 9}
	if _, err := RunCellResumed(other, dir, 0); err != nil {
		t.Fatalf("publishing the stale checkpoint [%s]: %v", other, err)
	}
	if _, err := replay.LoadCheckpoint(dir); err != nil {
		t.Fatalf("setup published no checkpoint: %v", err)
	}
	c := Cell{Model: "qnet", Engine: core.KindOptimistic, PEs: 1, KPs: 2, Seed: 3, Faults: DefaultFaults()}
	res, err := RunCellResumed(c, dir, 1<<30)
	if err == nil {
		t.Fatalf("resumed [%s] from a stale checkpoint: phase committed %d, composed %d",
			c, res.Stats.Committed, res.FP.Committed)
	}
}

// TestResumeVerifyLoop drives the crash-recovery pair on one recording:
// a checkpointed verify publishes into a directory and reproduces the
// recording, and a resume from that directory reproduces it too. Resume
// must refuse a checkpoint from another model's codec and one written
// without a commit recorder (it carries no trace digests to verify
// against).
func TestResumeVerifyLoop(t *testing.T) {
	lg := mustRecord(t, SpecForCell(Cell{Model: "phold", PEs: 2, KPs: 8, Seed: 5}))
	dir := t.TempDir()
	for _, step := range []struct {
		name string
		run  func() ([]string, error)
	}{
		{"checkpointed verify", func() ([]string, error) { return ReplayCheckpointed(lg, dir, 8) }},
		{"resume verify", func() ([]string, error) { return ResumeVerify(lg, dir) }},
	} {
		diffs, err := step.run()
		if err != nil {
			t.Fatalf("%s: %v", step.name, err)
		}
		if len(diffs) > 0 {
			t.Fatalf("%s diverges from the recording: %v", step.name, diffs)
		}
	}

	hot := t.TempDir()
	if _, err := ReplayCheckpointed(mustRecord(t, SpecForCell(Cell{Model: "hotpotato", PEs: 2, KPs: 8, Seed: 5})), hot, 8); err != nil {
		t.Fatalf("hotpotato checkpointed verify: %v", err)
	}
	if _, err := ResumeVerify(lg, hot); err == nil || !strings.Contains(err.Error(), "does not match log codec") {
		t.Errorf("phold log resumed from a hotpotato checkpoint: err = %v", err)
	}

	bare := t.TempDir()
	w, err := replay.NewCheckpointWriter(bare, phold.StateCodecName, phold.CodecName, nil)
	if err != nil {
		t.Fatal(err)
	}
	inst, err := buildPHOLD(Cell{Model: "phold", Engine: core.KindOptimistic, PEs: 2, KPs: 8, Seed: 5}, 0)
	if err != nil {
		t.Fatal(err)
	}
	inst.eng.(*core.Simulator).SetCheckpoint(w, 8)
	if _, err := inst.eng.Run(); err != nil {
		t.Fatal(err)
	}
	if _, err := ResumeVerify(lg, bare); err == nil || !strings.Contains(err.Error(), "no trace digests") {
		t.Errorf("checkpoint written without a recorder: err = %v", err)
	}
}

func mustRecord(t *testing.T, spec replay.Spec) *replay.Log {
	t.Helper()
	lg, err := Record(spec)
	if err != nil {
		t.Fatalf("record %s: %v", spec.Model, err)
	}
	return lg
}
