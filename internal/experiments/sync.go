package experiments

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/hotpotato"
	"repro/internal/phold"
	"repro/internal/stats"
)

// SyncPoint is one engine measurement in the synchronisation comparison.
type SyncPoint struct {
	Workload   string
	Engine     core.EngineKind
	Lookahead  float64
	EventRate  float64
	Committed  int64
	Rounds     int64 // GVT rounds or conservative windows
	RolledBack int64
	Wall       time.Duration
}

// SyncComparison runs the same workloads under all three execution
// engines: the sequential reference, optimistic Time Warp, and the
// conservative window-synchronous executor. Two workloads frame the
// classic trade-off:
//
//   - hot-potato routing (lookahead 0.05 steps of dense activity):
//     the conservative engine needs ~20 barrier windows per step;
//   - PHOLD at increasing lookahead: conservative performance climbs with
//     lookahead while Time Warp barely notices — Fujimoto's textbook
//     result, reproduced on this kernel.
func SyncComparison(opt Options) ([]SyncPoint, error) {
	pes := opt.PEs
	if pes <= 0 {
		pes = 4
	}
	var out []SyncPoint
	// run runs one built engine (err is its build error) and records it.
	run := func(workload string, lookahead float64, kind core.EngineKind, eng core.Engine, err error) error {
		var ks *core.Stats
		if err == nil {
			ks, err = eng.Run()
		}
		if err != nil {
			return fmt.Errorf("%s/%s: %w", workload, kind, err)
		}
		p := SyncPoint{Workload: workload, Engine: kind, Lookahead: lookahead,
			EventRate: ks.EventRate, Committed: ks.Committed, Rounds: ks.GVTRounds,
			RolledBack: ks.RolledBackEvents, Wall: ks.Wall}
		out = append(out, p)
		opt.progressf("sync: %s/%s la=%g rate=%.0f\n", p.Workload, p.Engine, p.Lookahead, p.EventRate)
		return nil
	}

	// Hot-potato workload.
	hp := hotpotato.DefaultConfig(16)
	hp.Steps = opt.steps(60)
	hp.Seed = opt.seed()
	hp.NumPEs = pes
	for _, kind := range []core.EngineKind{core.KindSequential, core.KindOptimistic, core.KindConservative} {
		eng, _, err := hotpotato.BuildEngine(kind, hp)
		if err := run("hotpotato-16", float64(hotpotato.Lookahead), kind, eng, err); err != nil {
			return nil, err
		}
	}

	// PHOLD lookahead ladder.
	for _, la := range []float64{0.01, 0.1, 1.0} {
		pcfg := phold.Config{
			NumLPs:     1024,
			Population: 8,
			RemoteProb: 0.5,
			Lookahead:  la,
			EndTime:    core.Time(opt.steps(30)),
			Seed:       opt.seed(),
			NumPEs:     pes,
		}
		for _, kind := range []core.EngineKind{core.KindOptimistic, core.KindConservative} {
			eng, _, err := phold.BuildEngine(kind, pcfg)
			if err := run("phold-1024", la, kind, eng, err); err != nil {
				return nil, err
			}
		}
	}
	return out, nil
}

// SyncTable renders the synchronisation comparison.
func SyncTable(points []SyncPoint) stats.Table {
	t := stats.Table{
		Title:  "Synchronisation comparison: sequential vs Time Warp vs conservative",
		Header: []string{"workload", "engine", "lookahead", "event rate (ev/s)", "committed", "rounds", "rolled back"},
	}
	for _, p := range points {
		t.AddRow(p.Workload, string(p.Engine), fmt.Sprintf("%g", p.Lookahead),
			stats.FormatNumber(p.EventRate), fmt.Sprintf("%d", p.Committed),
			fmt.Sprintf("%d", p.Rounds), fmt.Sprintf("%d", p.RolledBack))
	}
	return t
}
