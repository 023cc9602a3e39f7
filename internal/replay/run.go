package replay

import (
	"errors"
	"fmt"

	"repro/internal/core"
	"repro/internal/trace"
)

// Instance is one built simulation handed to the replay driver by a
// Runner: the engine, with the model installed and its own bootstrap
// events scheduled, and the commit-time trace recorder the driver
// fingerprints.
type Instance struct {
	Engine core.Engine
	// Trace receives every committed event; must be unbounded so the
	// fingerprints cover the whole run.
	Trace *trace.Recorder
	// EndTime is the resolved virtual-time horizon (models may quantize a
	// requested horizon, e.g. hot-potato's integer steps).
	EndTime core.Time
}

// Runner rebuilds a simulation from a Spec on the named engine, model
// bootstrap included; the driver harvests that bootstrap (Record) or drops
// it to schedule a recorded injection list in its place. Verify mode
// re-runs the optimistic kernel; the sequential engine is the oracle the
// differential harness compares against. internal/simcheck provides the
// Runner for the bundled models.
type Runner interface {
	Build(spec Spec, eng core.EngineKind) (*Instance, error)
}

// Record builds spec's model once to harvest its bootstrap injections,
// then records one optimistic run of those injections and returns the log.
// Using the same injection-driven path as Replay (rather than a special
// record-time path) means record and replay cannot drift apart.
func Record(r Runner, spec Spec) (*Log, error) {
	inst, err := r.Build(spec, core.KindOptimistic)
	if err != nil {
		return nil, err
	}
	codec, err := CodecFor(spec.Codec)
	if err != nil {
		return nil, err
	}
	var inj []Injection
	var encErr error
	inst.Engine.ForEachBootstrap(func(dst core.LPID, t core.Time, data any) {
		if encErr != nil {
			return
		}
		b, err := codec.Encode(nil, data)
		if err != nil {
			encErr = fmt.Errorf("replay: encoding bootstrap payload for LP %d: %w", dst, err)
			return
		}
		inj = append(inj, Injection{T: t, Dst: dst, Data: b})
	})
	if encErr != nil {
		return nil, encErr
	}
	spec.EndTime = inst.EndTime
	out, err := run(r, spec, inj, core.KindOptimistic)
	if err != nil {
		return nil, err
	}
	if out.Recorded == nil {
		return nil, errors.New("replay: runner instance does not support recording")
	}
	return out.Recorded, nil
}

// Replay re-executes log's injections under eng and compares fingerprints
// against the recording. It returns the mismatches (empty means the run
// reproduced the recording exactly); err covers runs that could not be
// built or crashed.
func Replay(r Runner, lg *Log, eng core.EngineKind) ([]string, error) {
	out, err := run(r, lg.Spec, lg.Inject, eng)
	if err != nil {
		return nil, err
	}
	return compareToLog(lg, out), nil
}

// outcome is one re-executed run: its trace, final fingerprint, and — for
// recording-capable engines — a fresh Log of the run itself.
type outcome struct {
	Trace    *trace.Recorder
	Final    Fingerprint
	Recorded *Log
}

// run builds spec, drops the model's bootstrap, schedules the injections, runs,
// and fingerprints the result.
func run(r Runner, spec Spec, inj []Injection, eng core.EngineKind) (*outcome, error) {
	return runWith(r, spec, inj, eng, nil)
}

// runWith is run with a pre-run hook: setup, when non-nil, sees the built
// instance after injections are scheduled and the record sink is attached,
// immediately before Run — the seam the checkpointing driver uses to arm
// its writer.
func runWith(r Runner, spec Spec, inj []Injection, eng core.EngineKind, setup func(*Instance) error) (*outcome, error) {
	inst, err := r.Build(spec, eng)
	if err != nil {
		return nil, err
	}
	inst.Engine.DropBootstrap()
	if inst.Trace == nil {
		return nil, errors.New("replay: runner instance has no trace recorder")
	}
	if inst.EndTime > 0 {
		// Keep the spec (and any log finalized from this run) carrying the
		// model's resolved horizon, not the requested one.
		spec.EndTime = inst.EndTime
	}
	codec, err := CodecFor(spec.Codec)
	if err != nil {
		return nil, err
	}
	for i, in := range inj {
		if in.Dst < 0 || int(in.Dst) >= inst.Engine.NumLPs() {
			return nil, fmt.Errorf("replay: injection %d targets LP %d, model has %d", i, in.Dst, inst.Engine.NumLPs())
		}
		if !(in.T >= 0) {
			return nil, fmt.Errorf("replay: injection %d has invalid time %v", i, in.T)
		}
		data, err := codec.Decode(in.Data)
		if err != nil {
			return nil, fmt.Errorf("replay: decoding injection %d: %w", i, err)
		}
		inst.Engine.Schedule(in.Dst, in.T, data)
	}
	var rec *Recorder
	if sim, ok := inst.Engine.(*core.Simulator); ok {
		rec = NewRecorder(sim.NumPEs())
		sim.SetRecord(rec)
	}
	if setup != nil {
		if err := setup(inst); err != nil {
			return nil, err
		}
	}
	stats, err := inst.Engine.Run()
	if err != nil {
		return nil, err
	}
	fp := Fingerprint{
		Committed: stats.Committed,
		TraceLen:  inst.Trace.Len(),
		TraceHash: inst.Trace.Hash(),
		StateHash: trace.StateHash(inst.Engine),
	}
	out := &outcome{Trace: inst.Trace, Final: fp}
	if rec != nil {
		out.Recorded = rec.finalize(spec, inj, inst.Trace, fp)
	}
	return out, nil
}

// compareFingerprints returns the fields where got differs from ref.
func compareFingerprints(ref, got Fingerprint) []string {
	var diffs []string
	if ref.Committed != got.Committed {
		diffs = append(diffs, fmt.Sprintf("committed events: recorded=%d replay=%d", ref.Committed, got.Committed))
	}
	if ref.TraceLen != got.TraceLen {
		diffs = append(diffs, fmt.Sprintf("trace length: recorded=%d replay=%d", ref.TraceLen, got.TraceLen))
	}
	if ref.TraceHash != got.TraceHash {
		diffs = append(diffs, fmt.Sprintf("trace hash: recorded=%016x replay=%016x", ref.TraceHash, got.TraceHash))
	}
	if ref.StateHash != got.StateHash {
		diffs = append(diffs, fmt.Sprintf("final state hash: recorded=%016x replay=%016x", ref.StateHash, got.StateHash))
	}
	return diffs
}

// compareToLog checks a replay outcome against a recording: the final
// fingerprint, plus the recorded per-GVT-round horizons evaluated as
// prefix hashes of the replay's own committed trace. The horizons transfer
// between runs (and even engines) because a prefix hash depends only on
// the committed history and the horizon value, not on where this run's
// rounds happened to land.
func compareToLog(lg *Log, out *outcome) []string {
	diffs := compareFingerprints(lg.Final, out.Final)
	for i := 1; i < len(lg.Rounds); i++ {
		if lg.Rounds[i].GVT < lg.Rounds[i-1].GVT {
			return append(diffs, "recorded GVT sequence is not nondecreasing — corrupt log?")
		}
	}
	if len(lg.Rounds) == 0 {
		return diffs
	}
	horizons := make([]core.Time, len(lg.Rounds))
	for i, rd := range lg.Rounds {
		horizons[i] = rd.GVT
	}
	fps := out.Trace.PrefixHashes(horizons)
	bad := 0
	for i, rd := range lg.Rounds {
		if fps[i] != rd.TraceHash {
			if bad < 4 {
				diffs = append(diffs, fmt.Sprintf(
					"round %d (gvt=%v): trace prefix hash recorded=%016x replay=%016x",
					i, rd.GVT, rd.TraceHash, fps[i]))
			}
			bad++
		}
	}
	if bad > 4 {
		diffs = append(diffs, fmt.Sprintf("... %d of %d rounds diverge", bad, len(lg.Rounds)))
	}
	return diffs
}
