// Package phold implements PHOLD, the standard synthetic benchmark for
// parallel discrete-event simulators (Fujimoto, "Performance of Time Warp
// under synthetic workloads", 1990). A fixed population of jobs bounces
// between logical processes with exponential delays; the remote-message
// probability dials inter-PE traffic, and therefore rollback pressure, up
// and down.
//
// The hot-potato model is the report's workload; PHOLD is the neutral
// stressor the kernel ablations (queue choice, KP counts, GVT interval)
// use so their results are not confounded by routing dynamics.
package phold

import (
	"errors"

	"repro/internal/core"
)

// Config parameterises a PHOLD run.
type Config struct {
	// NumLPs is the number of logical processes.
	NumLPs int
	// Population is the number of jobs in flight per LP at start (the
	// classic "message density"); default 1.
	Population int
	// RemoteProb is the probability a job moves to a uniformly random LP
	// instead of staying home. Higher values mean more inter-PE traffic.
	RemoteProb float64
	// MeanDelay is the mean of the exponential hold time; default 1.
	MeanDelay float64
	// Lookahead is a constant added to every delay; PHOLD traditionally
	// runs with a small positive lookahead. Default 0.1.
	Lookahead float64
	// EndTime is the virtual-time horizon.
	EndTime core.Time
	// Seed selects the random universe.
	Seed uint64

	// Kernel passthrough.
	NumPEs      int
	NumKPs      int
	BatchSize   int
	GVTInterval int
	Queue       string
	MaxOptimism core.Time
	// Faults arms the kernel's fault injectors (see core.Faults); only the
	// optimistic Build honours it.
	Faults *core.Faults
}

func (cfg *Config) defaults() error {
	if cfg.NumLPs <= 0 {
		return errors.New("phold: NumLPs must be positive")
	}
	if !(cfg.EndTime > 0) {
		return errors.New("phold: EndTime must be positive")
	}
	if cfg.Population <= 0 {
		cfg.Population = 1
	}
	if cfg.MeanDelay <= 0 {
		cfg.MeanDelay = 1
	}
	if cfg.Lookahead <= 0 {
		cfg.Lookahead = 0.1
	}
	if cfg.RemoteProb < 0 || cfg.RemoteProb > 1 {
		return errors.New("phold: RemoteProb must be in [0, 1]")
	}
	return nil
}

// State is the per-LP state: just a processed-job counter.
type State struct {
	Processed int64
}

// Model is the PHOLD handler.
type Model struct {
	cfg Config
}

// BuildEngine constructs the named engine with PHOLD installed. The
// conservative engine's usable lookahead is exactly cfg.Lookahead, so PHOLD
// is the natural workload for studying conservative lookahead sensitivity.
func BuildEngine(kind core.EngineKind, cfg Config) (core.Engine, *Model, error) {
	if err := cfg.defaults(); err != nil {
		return nil, nil, err
	}
	eng, err := core.NewEngine(kind, core.Config{
		NumLPs:      cfg.NumLPs,
		NumPEs:      cfg.NumPEs,
		NumKPs:      cfg.NumKPs,
		EndTime:     cfg.EndTime,
		BatchSize:   cfg.BatchSize,
		GVTInterval: cfg.GVTInterval,
		Queue:       cfg.Queue,
		Seed:        cfg.Seed,
		MaxOptimism: cfg.MaxOptimism,
		Faults:      cfg.Faults,
	}, core.Time(cfg.Lookahead))
	if err != nil {
		return nil, nil, err
	}
	m := &Model{cfg: cfg}
	m.install(eng)
	return eng, m, nil
}

// Build constructs the optimistic parallel simulator (BuildEngine's
// KindOptimistic, typed).
func Build(cfg Config) (*core.Simulator, *Model, error) {
	eng, m, err := BuildEngine(core.KindOptimistic, cfg)
	if err != nil {
		return nil, nil, err
	}
	return eng.(*core.Simulator), m, nil
}

// BuildSequential constructs the sequential reference run (BuildEngine's
// KindSequential, typed).
func BuildSequential(cfg Config) (*core.Sequential, *Model, error) {
	eng, m, err := BuildEngine(core.KindSequential, cfg)
	if err != nil {
		return nil, nil, err
	}
	return eng.(*core.Sequential), m, nil
}

func (m *Model) install(h core.Host) {
	h.ForEachLP(func(lp *core.LP) {
		lp.Handler = m
		lp.State = &State{}
	})
	// Stagger the initial population deterministically so no two bootstrap
	// events tie.
	n := h.NumLPs()
	for i := 0; i < n; i++ {
		for p := 0; p < m.cfg.Population; p++ {
			t := core.Time(float64(p*n+i+1) * 1e-6)
			h.Schedule(core.LPID(i), t, nil)
		}
	}
}

// Forward implements core.Handler: hold the job, then forward it. PHOLD
// jobs carry no payload (Data is nil), so the kernel's event free list
// alone makes the steady-state loop allocation-free — the model never
// calls lp.Spare, unlike hotpotato and qnet whose message structs are
// reissued through it.
func (m *Model) Forward(lp *core.LP, ev *core.Event) {
	lp.State.(*State).Processed++
	dst := lp.ID
	if lp.Rand() < m.cfg.RemoteProb {
		dst = core.LPID(lp.RandInt(0, int64(m.cfg.NumLPs)-1))
	}
	delay := core.Time(m.cfg.Lookahead + lp.RandExp(m.cfg.MeanDelay))
	lp.Send(dst, delay, nil)
}

// Reverse implements core.Handler.
func (m *Model) Reverse(lp *core.LP, ev *core.Event) {
	lp.State.(*State).Processed--
}

// TotalProcessed sums the per-LP job counters.
func (m *Model) TotalProcessed(h core.Host) int64 {
	var total int64
	h.ForEachLP(func(lp *core.LP) {
		total += lp.State.(*State).Processed
	})
	return total
}
