package simcheck

import (
	"errors"
	"fmt"

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
// The composed fingerprint must equal a clean sequential reference run's:
// that is the crash-recovery claim in miniature, and the soak harness holds
// 1-in-N episodes to it.
func RunCellResumed(c Cell, dir string, every int) (Result, error) {
	if c.Engine != core.KindOptimistic {
		return Result{}, fmt.Errorf("simcheck: resume requires the optimistic engine, not %q", c.Engine)
	}
	if every <= 0 {
		every = CheckpointEvery
	}
	spec, ok := models[c.Model]
	if !ok {
		return Result{}, fmt.Errorf("simcheck: unknown model %q (have %v)", c.Model, ModelNames())
	}
	// Phase one: an ordinary optimistic run, checkpointing every GVT round.
	inst, err := spec.build(c, 0)
	if err != nil {
		return Result{}, err
	}
	sim := inst.eng.(*core.Simulator)
	codec, err := replay.CodecFor(spec.codec)
	if err != nil {
		return Result{}, err
	}
	w, err := replay.NewCheckpointWriter(dir, codec.StateName(), codec.Name(), inst.rec)
	if err != nil {
		return Result{}, err
	}
	sim.SetCheckpoint(w, every)
	stats1, err := inst.eng.Run()
	if err != nil {
		return Result{}, err
	}
	cp, err := replay.LoadCheckpoint(dir)
	if errors.Is(err, replay.ErrNoCheckpoint) {
		// Nothing was ever due: the run finished before `every` rounds with
		// a positive, non-final estimate had completed (a 1-PE cell whose
		// GVT requests the GVTDelay fault suppresses gets there). There is
		// nothing to resume, so the uninterrupted run is the result.
		return inst.result(c, stats1, 0), nil
	}
	if err != nil {
		return Result{}, fmt.Errorf("simcheck: cell published no loadable checkpoint: %w", err)
	}
	// Phase two: a fresh build of the same cell, bootstrap dropped, resumed
	// from the published checkpoint. Its recorder starts seeded with the
	// checkpoint's trace digests, so the folded hashes cover the whole run.
	inst2, err := spec.build(c, 0)
	if err != nil {
		return Result{}, err
	}
	if err := replay.RestoreCheckpoint(cp, inst2.eng.(*core.Simulator), inst2.rec); err != nil {
		return Result{}, err
	}
	stats, err := inst2.eng.Run()
	if err != nil {
		return Result{}, err
	}
	return inst2.result(c, stats, cp.Committed), nil
}
