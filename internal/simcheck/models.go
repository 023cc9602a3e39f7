package simcheck

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/hotpotato"
	"repro/internal/phold"
	"repro/internal/qnet"
)

// modelSpec adapts one bundled model to the harness: which engines it can
// build, the replay codec its logs and checkpoints use, and how to build an
// instrumented instance for a cell. Model sizes
// are fixed small so a full matrix stays in CI territory; the seed is the
// only knob a cell turns on the workload itself. endTime, when positive,
// overrides the model's default horizon (the replay shrinker bisects it);
// models with quantized horizons round it up.
type modelSpec struct {
	engines map[core.EngineKind]bool
	codec   string
	build   func(c Cell, endTime core.Time) (*instance, error)
}

var models = map[string]*modelSpec{
	"hotpotato": {
		engines: map[core.EngineKind]bool{core.KindSequential: true, core.KindConservative: true, core.KindOptimistic: true},
		codec:   hotpotato.CodecName,
		build:   buildHotpotato,
	},
	"phold": {
		engines: map[core.EngineKind]bool{core.KindSequential: true, core.KindConservative: true, core.KindOptimistic: true},
		codec:   phold.CodecName,
		build:   buildPHOLD,
	},
	// qnet declares no lookahead, so it sweeps two engines.
	"qnet": {
		engines: map[core.EngineKind]bool{core.KindSequential: true, core.KindOptimistic: true},
		codec:   qnet.CodecName,
		build:   buildQNet,
	},
}

// Aggressive scheduling knobs shared by all cells: small batches and
// frequent GVT rounds maximise interleaving variety per committed event.
const (
	cellBatchSize   = 8
	cellGVTInterval = 2
)

func buildHotpotato(c Cell, endTime core.Time) (*instance, error) {
	cfg := hotpotato.Config{
		N:               8,
		Policy:          hotpotatoPolicy(c.Mutation),
		InjectorPercent: 100,
		InjectionProb:   1,
		AbsorbSleeping:  true,
		InitialFill:     4,
		Steps:           30,
		Seed:            c.Seed,
		NumPEs:          c.PEs,
		NumKPs:          c.KPs,
		BatchSize:       cellBatchSize,
		GVTInterval:     cellGVTInterval,
	}
	if endTime > 0 {
		// The hot-potato horizon is an integer step count; round a
		// fractional override up so it stays positive.
		cfg.Steps = int(math.Ceil(float64(endTime)))
		if cfg.Steps < 1 {
			cfg.Steps = 1
		}
	}
	eng, m, err := hotpotato.BuildEngine(c.Engine, cfg)
	if err != nil {
		return nil, err
	}
	summary := func() string { return m.Totals(eng).String() }
	return newInstance(c, eng, core.Time(cfg.Steps), summary, describeHotpotato)
}

// describeHotpotato renders the semantic payload — event kind plus the
// packet label — and deliberately drops the Msg's Saved* scratch area (see
// instance.describe for why scratch cannot be hashed).
func describeHotpotato(lp *core.LP, ev *core.Event) string {
	if m, ok := ev.Data.(*hotpotato.Msg); ok {
		return fmt.Sprintf("%v %+v", m.Kind, m.P)
	}
	return fmt.Sprintf("%v", ev.Data)
}

func buildPHOLD(c Cell, endTime core.Time) (*instance, error) {
	cfg := phold.Config{
		NumLPs:     64,
		Population: 2,
		RemoteProb: 0.5,
		MeanDelay:  1,
		Lookahead:  0.1,
		EndTime:    40,
		Seed:       c.Seed,
		NumPEs:     c.PEs,
		NumKPs:     c.KPs,
		BatchSize:  cellBatchSize,
		// GVTInterval below via kernel default would be too lazy; phold's
		// Config exposes it directly.
		GVTInterval: cellGVTInterval,
	}
	if endTime > 0 {
		cfg.EndTime = endTime
	}
	eng, m, err := phold.BuildEngine(c.Engine, cfg)
	if err != nil {
		return nil, err
	}
	summary := func() string { return fmt.Sprintf("phold: %d jobs processed", m.TotalProcessed(eng)) }
	return newInstance(c, eng, cfg.EndTime, summary, nil)
}

func buildQNet(c Cell, endTime core.Time) (*instance, error) {
	cfg := qnet.Config{
		N:              6,
		JobsPerStation: 2,
		MeanService:    1,
		EndTime:        25,
		Seed:           c.Seed,
		NumPEs:         c.PEs,
		NumKPs:         c.KPs,
		BatchSize:      cellBatchSize,
		GVTInterval:    cellGVTInterval,
	}
	if endTime > 0 {
		cfg.EndTime = endTime
	}
	eng, m, err := qnet.BuildEngine(c.Engine, cfg)
	if err != nil {
		return nil, err
	}
	summary := func() string { return m.Totals(eng, cfg.EndTime).String() }
	return newInstance(c, eng, cfg.EndTime, summary, describeQNet)
}

// describeQNet renders the semantic payload as `&{Kind EnqueuedAt}`, the
// form the recorded trace hashes were taken over, and drops Msg's HeadAfter
// commit scratch (see instance.describe for why scratch cannot be hashed).
func describeQNet(lp *core.LP, ev *core.Event) string {
	if m, ok := ev.Data.(*qnet.Msg); ok {
		return fmt.Sprintf("&{%v %v}", m.Kind, m.EnqueuedAt)
	}
	return fmt.Sprintf("%v", ev.Data)
}
