package simcheck

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/core"
	"repro/internal/replay"
)

// CheckpointEvery is the default checkpoint cadence in GVT rounds for
// harness-driven runs. The rendezvous rolls every KP back to GVT, so the
// cadence must leave room for real progress between cuts: checkpointing
// every round discards almost all optimistic work each time and the run
// crawls. The harness cells complete in a few hundred GVT rounds, so this
// cadence publishes a handful of checkpoints per run.
const CheckpointEvery = 32

// RunCellResumed runs an optimistic cell across a checkpoint/restore cut:
// phase one runs the cell to completion with a checkpoint published into
// dir every `every` GVT rounds (CheckpointEvery if every <= 0); phase two
// builds the cell again from scratch, restores the last published
// checkpoint and runs only the tail. The returned Result carries the
// composed fingerprint (committed count summed across the cut, trace
// hashes folded from the checkpoint's seeded prefix) and phase two's
// kernel stats — so Stats.Committed < FP.Committed proves the run
// genuinely resumed mid-stream rather than re-running everything. A phase
// one that finishes before any checkpoint falls due has nothing to resume;
// its own result is returned, with Stats.Committed == FP.Committed.
//
// dir must hold no published checkpoint: phase two resumes whatever dir
// holds after phase one, and a checkpoint another run left there would
// be resumed as this cell's.
//
// The composed fingerprint must equal a clean sequential reference run's:
// that is the crash-recovery claim in miniature, and Check holds every
// Checkpoint case (1 in 8 optimistic soak episodes) to it.
func RunCellResumed(c Cell, dir string, every int) (Result, error) {
	if c.Engine != core.KindOptimistic {
		return Result{}, fmt.Errorf("simcheck: resume requires the optimistic engine, not %q", c.Engine)
	}
	if every <= 0 {
		every = CheckpointEvery
	}
	if _, err := os.Stat(filepath.Join(dir, replay.ManifestName)); err == nil {
		return Result{}, fmt.Errorf("simcheck: %s already holds a published checkpoint; a resumed run needs a directory without one", dir)
	}
	first, err := run(c, plan{ckptDir: dir, every: every})
	if err != nil {
		return Result{}, err
	}
	cp, err := replay.LoadCheckpoint(dir)
	if errors.Is(err, replay.ErrNoCheckpoint) {
		// Nothing was ever due: the run finished before `every` rounds with
		// a positive, non-final estimate had completed (a 1-PE cell whose
		// GVT requests the GVTDelay fault suppresses gets there). There is
		// nothing to resume, so the uninterrupted run is the result.
		return first.Result, nil
	}
	if err != nil {
		return Result{}, fmt.Errorf("simcheck: cell published no loadable checkpoint: %w", err)
	}
	out, err := run(c, plan{resume: cp})
	if err != nil {
		return Result{}, err
	}
	return out.Result, nil
}

// ReplayCheckpointed is Replay under the optimistic engine with periodic
// checkpointing armed: every `every` GVT rounds a checkpoint is published
// into dir, and the run is still held to the recording's fingerprints (the
// checkpoint rendezvous is scheduling-only, so arming it must not change
// committed results). The log's codec serializes the checkpoints. This is
// the victim the crash harness SIGKILLs.
func ReplayCheckpointed(lg *replay.Log, dir string, every int) ([]string, error) {
	out, err := runSpec(lg.Spec, core.KindOptimistic, plan{inject: lg.Inject, ckptDir: dir, every: every})
	if err != nil {
		return nil, err
	}
	return compareToLog(lg, out), nil
}

// ResumeVerify loads dir's published checkpoint, resumes the run it came
// from on a fresh build of lg's Spec, and holds the completed run to the
// recording: the final fingerprint must match bit-for-bit (committed count
// composed across the cut, trace hash folded from the seeded prefix), and
// every recorded GVT-round horizon at or beyond the checkpoint's GVT must
// reproduce its trace prefix hash. Horizons below the cut are skipped —
// the resumed recorder cannot split the prefix it never observed. A
// checkpoint written without a commit recorder carries no trace digests
// and is rejected.
func ResumeVerify(lg *replay.Log, dir string) ([]string, error) {
	cp, err := replay.LoadCheckpoint(dir)
	if err != nil {
		return nil, err
	}
	if cp.Codec != lg.Spec.Codec {
		return nil, fmt.Errorf("simcheck: checkpoint codec %q does not match log codec %q", cp.Codec, lg.Spec.Codec)
	}
	out, err := runSpec(lg.Spec, core.KindOptimistic, plan{resume: cp})
	if err != nil {
		return nil, err
	}
	tail := *lg
	tail.Rounds = nil
	for _, rd := range lg.Rounds {
		if rd.GVT >= cp.GVT {
			tail.Rounds = append(tail.Rounds, rd)
		}
	}
	return compareToLog(&tail, out), nil
}
