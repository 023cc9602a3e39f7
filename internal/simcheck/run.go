package simcheck

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/replay"
	"repro/internal/trace"
)

// plan is what one run does between building its cell and running it. The
// zero plan runs the cell as built, on the model's own bootstrap and
// horizon.
type plan struct {
	// spec, when non-nil, makes this a run of a replay log: the horizon is
	// spec.EndTime, payloads go through spec.Codec, and the model's
	// bootstrap is replaced by inject.
	spec   *replay.Spec
	inject []replay.Injection
	// harvest makes the model's own bootstrap the injection list: encoded
	// through the codec, dropped, and scheduled back decoded, so a
	// recording runs exactly the path its replays will.
	harvest bool
	// record attaches a kernel recorder; the outcome then carries the log.
	record bool
	// ckptDir, when set, publishes a checkpoint there every `every` GVT
	// rounds (phase one of a checkpoint/resume).
	ckptDir string
	every   int
	// resume, when non-nil, restores this checkpoint in place of the
	// bootstrap (phase two).
	resume *replay.Checkpoint
}

// outcome is one finished run: its result, the commit trace it was
// fingerprinted from, and its log when the plan recorded one.
type outcome struct {
	Result
	trace *trace.Recorder
	log   *replay.Log
}

// run is the harness's one path from a cell to a fingerprint: it builds
// and instruments c, applies p, runs the engine and fingerprints what it
// committed. Checkpointing, resume and recording need the optimistic
// engine.
func run(c Cell, p plan) (*outcome, error) {
	ms, ok := models[c.Model]
	if !ok {
		return nil, fmt.Errorf("simcheck: unknown model %q (have %v)", c.Model, ModelNames())
	}
	if !ms.engines[c.Engine] {
		return nil, fmt.Errorf("simcheck: model %q does not support engine %q", c.Model, c.Engine)
	}
	if err := Validate(nil, c.Mutation); err != nil {
		return nil, fmt.Errorf("simcheck: %w", err)
	}
	spec := SpecForCell(c)
	if p.spec != nil {
		spec = *p.spec
	}
	inst, err := ms.build(c, spec.EndTime)
	if err != nil {
		return nil, err
	}
	// A log carries the model's resolved horizon, not the requested one.
	spec.EndTime = inst.endTime
	codec, err := replay.CodecFor(spec.Codec)
	if err != nil {
		return nil, err
	}
	sim, _ := inst.eng.(*core.Simulator)
	inj := p.inject
	var before int64
	switch {
	case p.resume != nil:
		if err := replay.RestoreCheckpoint(p.resume, sim, inst.rec); err != nil {
			return nil, err
		}
		before = p.resume.Committed
	case p.spec != nil:
		if p.harvest {
			if inj, err = harvest(inst.eng, codec); err != nil {
				return nil, err
			}
		}
		if err := schedule(inst.eng, codec, inj); err != nil {
			return nil, err
		}
	}
	var rec *replay.Recorder
	if p.record {
		rec = replay.NewRecorder(sim.NumPEs())
		sim.SetRecord(rec)
	}
	if p.ckptDir != "" {
		w, err := replay.NewCheckpointWriter(p.ckptDir, codec.StateName(), codec.Name(), inst.rec)
		if err != nil {
			return nil, err
		}
		sim.SetCheckpoint(w, p.every)
	}
	stats, err := inst.eng.Run()
	if err != nil {
		return nil, err
	}
	out := &outcome{
		Result: Result{
			Cell: c,
			FP: replay.Fingerprint{
				Committed: before + stats.Committed,
				TraceLen:  inst.rec.Len(),
				TraceHash: inst.rec.Hash(),
				LPHashes:  inst.rec.LPHashes(inst.eng.NumLPs()),
				StateHash: trace.StateHash(inst.eng),
			},
			Stats:   stats,
			Summary: inst.summary(),
		},
		trace: inst.rec,
	}
	if rec != nil {
		out.log = rec.Finalize(spec, inj, inst.rec, out.FP)
	}
	return out, nil
}

// runSpec runs spec's cell on eng under p. The spec's mutation and fault
// plan are armed only on the optimistic engine, mirroring the matrix, where
// the sequential oracle is always clean.
func runSpec(spec replay.Spec, eng core.EngineKind, p plan) (*outcome, error) {
	c := Cell{Model: spec.Model, Engine: eng, PEs: spec.PEs, KPs: spec.KPs, Seed: spec.Seed}
	if eng == core.KindOptimistic {
		c.Faults, c.Mutation = spec.Faults, Mutation(spec.Mutation)
	}
	p.spec = &spec
	return run(c, p)
}

// harvest encodes eng's bootstrap events as injections.
func harvest(eng core.Engine, codec replay.Codec) ([]replay.Injection, error) {
	var inj []replay.Injection
	var encErr error
	eng.ForEachBootstrap(func(dst core.LPID, t core.Time, data any) {
		if encErr != nil {
			return
		}
		b, err := codec.Encode(nil, data)
		if err != nil {
			encErr = fmt.Errorf("simcheck: encoding bootstrap payload for LP %d: %w", dst, err)
			return
		}
		inj = append(inj, replay.Injection{T: t, Dst: dst, Data: b})
	})
	return inj, encErr
}

// schedule drops eng's bootstrap and schedules the decoded injections in
// its place.
func schedule(eng core.Engine, codec replay.Codec, inj []replay.Injection) error {
	eng.DropBootstrap()
	for i, in := range inj {
		if in.Dst < 0 || int(in.Dst) >= eng.NumLPs() {
			return fmt.Errorf("simcheck: injection %d targets LP %d, model has %d", i, in.Dst, eng.NumLPs())
		}
		if !(in.T >= 0) {
			return fmt.Errorf("simcheck: injection %d has invalid time %v", i, in.T)
		}
		data, err := codec.Decode(in.Data)
		if err != nil {
			return fmt.Errorf("simcheck: decoding injection %d: %w", i, err)
		}
		eng.Schedule(in.Dst, in.T, data)
	}
	return nil
}
