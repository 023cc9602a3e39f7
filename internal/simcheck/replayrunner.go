package simcheck

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"

	"repro/internal/core"
	"repro/internal/replay"
)

// SpecForCell builds the replay spec describing cell c: the complete
// recipe — model, codec, engine shape, scheduling knobs, seed, fault plan
// and mutation — for re-recording the cell's run. EndTime is left zero
// (model default); recording resolves it.
func SpecForCell(c Cell) replay.Spec {
	spec := replay.Spec{
		Model:       c.Model,
		Queue:       c.Queue,
		Mutation:    string(c.Mutation),
		PEs:         c.PEs,
		KPs:         c.KPs,
		BatchSize:   cellBatchSize,
		GVTInterval: cellGVTInterval,
		Seed:        c.Seed,
		Faults:      c.Faults,
	}
	if ms, ok := models[c.Model]; ok {
		spec.Codec = ms.codec
	}
	return spec
}

// Runner adapts the harness's model registry to the replay subsystem: it
// rebuilds a Spec's cell under the requested engine, with the mutation and
// fault plan armed only on optimistic builds — mirroring the matrix's
// reference semantics, where the sequential oracle is always clean.
type Runner struct{}

// Build implements replay.Runner.
func (Runner) Build(spec replay.Spec, eng core.EngineKind) (*replay.Instance, error) {
	c := Cell{
		Model:  spec.Model,
		Engine: eng,
		PEs:    spec.PEs,
		KPs:    spec.KPs,
		Queue:  spec.Queue,
		Seed:   spec.Seed,
	}
	if eng == core.KindOptimistic {
		c.Faults = spec.Faults
		c.Mutation = Mutation(spec.Mutation)
		if c.Mutation != MutNone && !slices.Contains(Mutations(), c.Mutation) {
			return nil, fmt.Errorf("simcheck: unknown mutation %q (have %v)", spec.Mutation, Mutations())
		}
	}
	ms, ok := models[spec.Model]
	if !ok {
		return nil, fmt.Errorf("simcheck: unknown model %q (have %v)", spec.Model, ModelNames())
	}
	if !ms.engines[eng] {
		return nil, fmt.Errorf("simcheck: model %q does not support engine %q", spec.Model, eng)
	}
	inst, err := ms.build(c, spec.EndTime)
	if err != nil {
		return nil, err
	}
	return &replay.Instance{Engine: inst.eng, Trace: inst.rec, EndTime: inst.endTime}, nil
}

// AutoRecord re-records a diverging optimistic cell through the replay
// subsystem, shrinks the recording to a minimal failing log, and writes it
// under dir, returning the artifact path. If the shrink cannot reproduce
// the failure (a flaky divergence) the unshrunk recording is written
// instead — a recording of the diverging configuration is still the best
// available artifact. Matrix.AutoRecord uses it for every diverging
// optimistic cell; the soak harness calls it directly for failed
// episodes. logf must be non-nil.
func AutoRecord(dir string, c Cell, logf func(format string, args ...any)) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	lg, err := replay.Record(Runner{}, SpecForCell(c))
	if err != nil {
		return "", err
	}
	if res, err := replay.Shrink(Runner{}, lg, logf); err != nil {
		logf("auto-record [%s] shrink failed (%v); keeping full recording", c, err)
	} else {
		logf("auto-record [%s] shrunk %d->%d injections, horizon %v->%v in %d tests",
			c, res.FromInjections, res.ToInjections, res.FromEndTime, res.ToEndTime, res.Tests)
		lg = res.Log
	}
	path := filepath.Join(dir, artifactName(c))
	return path, replay.WriteFile(path, lg)
}

// artifactName renders a cell into a stable, filesystem-safe file name.
func artifactName(c Cell) string {
	name := fmt.Sprintf("%s-%s-pe%d-kp%d-%s-seed%d", c.Model, c.Engine, c.PEs, c.KPs, c.Queue, c.Seed)
	if c.Faults != nil {
		name += fmt.Sprintf("-faults%x", c.Faults.Seed)
	}
	if c.Mutation != MutNone {
		name += "-" + string(c.Mutation)
	}
	return strings.ReplaceAll(name, string(os.PathSeparator), "_") + ".replay"
}
