package experiments

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/hotpotato"
	"repro/internal/routing"
	"repro/internal/stats"
)

// DeterminismResult is the Attachment 3 reproduction: the full statistics
// of a sequential and a parallel run of the same configuration.
type DeterminismResult struct {
	Sequential hotpotato.Totals
	Parallel   hotpotato.Totals
	Equal      bool
	PEs        int
	KPs        int
}

// Determinism runs the same configuration on both engines and compares
// every aggregate — the report's sample-output equality check.
func Determinism(opt Options) (DeterminismResult, error) {
	n := 16
	if opt.Full {
		n = 32
	}
	cfg := hotpotato.DefaultConfig(n)
	cfg.Steps = opt.steps(50)
	cfg.Seed = opt.seed()

	seqTotals, _, err := runHotpotato(core.KindSequential, cfg)
	if err != nil {
		return DeterminismResult{}, err
	}
	pcfg := cfg
	pcfg.NumPEs = opt.PEs
	if pcfg.NumPEs <= 0 {
		pcfg.NumPEs = 4
	}
	pcfg.NumKPs = 16 * pcfg.NumPEs
	parTotals, _, err := runHotpotato(core.KindOptimistic, pcfg)
	if err != nil {
		return DeterminismResult{}, err
	}
	return DeterminismResult{
		Sequential: seqTotals,
		Parallel:   parTotals,
		Equal:      seqTotals == parTotals,
		PEs:        pcfg.NumPEs,
		KPs:        pcfg.NumKPs,
	}, nil
}

// PolicyPoint is one (policy, N) cell of the baseline comparison.
type PolicyPoint struct {
	Policy         string
	N              int
	AvgDelivery    float64
	DeflectionRate float64
	AvgWait        float64
	Delivered      int64
	Wall           time.Duration
}

// BaselineSweep compares the paper's algorithm against the baseline
// deflection policies on the standard saturated workload.
func BaselineSweep(opt Options) ([]PolicyPoint, error) {
	sizes := []int{8, 16}
	if opt.Full {
		sizes = []int{8, 16, 32, 64}
	}
	var out []PolicyPoint
	for _, name := range routing.Names() {
		pol, err := routing.ByName(name)
		if err != nil {
			return nil, err
		}
		for _, n := range sizes {
			cfg := hotpotato.DefaultConfig(n)
			cfg.Policy = pol
			cfg.Steps = opt.steps(deliverySteps(n))
			cfg.Seed = opt.seed()
			cfg.NumPEs = opt.PEs
			start := time.Now()
			totals, _, err := runHotpotato(core.KindOptimistic, cfg)
			if err != nil {
				return nil, fmt.Errorf("policy %s N=%d: %w", name, n, err)
			}
			out = append(out, PolicyPoint{
				Policy:         name,
				N:              n,
				AvgDelivery:    totals.AvgDelivery,
				DeflectionRate: totals.DeflectionRate,
				AvgWait:        totals.AvgWait,
				Delivered:      totals.Delivered,
				Wall:           time.Since(start),
			})
			opt.progressf("baselines: %s N=%d delivery=%.2f defl=%.3f\n",
				name, n, totals.AvgDelivery, totals.DeflectionRate)
		}
	}
	return out, nil
}

// BaselineTable renders the policy comparison.
func BaselineTable(points []PolicyPoint) stats.Table {
	t := stats.Table{
		Title:  "Baseline comparison: deflection policies on the saturated torus",
		Header: []string{"policy", "N", "avg delivery", "deflection rate", "avg inject wait", "delivered"},
	}
	for _, p := range points {
		t.AddRow(p.Policy, fmt.Sprintf("%d", p.N), stats.FormatNumber(p.AvgDelivery),
			fmt.Sprintf("%.4f", p.DeflectionRate), stats.FormatNumber(p.AvgWait),
			fmt.Sprintf("%d", p.Delivered))
	}
	return t
}

// TopologyPoint is one cell of the torus-vs-mesh comparison.
type TopologyPoint struct {
	Topology    string
	N           int
	AvgDistance float64
	AvgDelivery float64
	MaxDelivery float64
	Delivered   int64
}

// TopologySweep compares the torus against the mesh at equal N — the
// report's §1.1 rationale for simulating the torus: wrap-around halves
// the maximum distance (N-1 vs 2(N-1)), and boundary nodes stop being
// special.
func TopologySweep(opt Options) ([]TopologyPoint, error) {
	sizes := []int{8, 16}
	if opt.Full {
		sizes = []int{8, 16, 32}
	}
	var out []TopologyPoint
	for _, topo := range []string{"torus", "mesh"} {
		for _, n := range sizes {
			cfg := hotpotato.DefaultConfig(n)
			cfg.Topology = topo
			cfg.InitialFill = 2 // mesh corners have degree 2
			cfg.Steps = opt.steps(8 * n)
			cfg.Seed = opt.seed()
			cfg.NumPEs = opt.PEs
			totals, _, err := runHotpotato(core.KindOptimistic, cfg)
			if err != nil {
				return nil, fmt.Errorf("%s N=%d: %w", topo, n, err)
			}
			out = append(out, TopologyPoint{
				Topology:    topo,
				N:           n,
				AvgDistance: totals.AvgDistance,
				AvgDelivery: totals.AvgDelivery,
				MaxDelivery: totals.MaxDelivery,
				Delivered:   totals.Delivered,
			})
			opt.progressf("topology: %s N=%d delivery=%.2f dist=%.2f\n",
				topo, n, totals.AvgDelivery, totals.AvgDistance)
		}
	}
	return out, nil
}

// TopologyTable renders the torus-vs-mesh comparison.
func TopologyTable(points []TopologyPoint) stats.Table {
	t := stats.Table{
		Title:  "Topology: torus vs mesh at equal N (report §1.1)",
		Header: []string{"topology", "N", "avg distance", "avg delivery", "max delivery", "delivered"},
	}
	for _, p := range points {
		t.AddRow(p.Topology, fmt.Sprintf("%d", p.N), stats.FormatNumber(p.AvgDistance),
			stats.FormatNumber(p.AvgDelivery), fmt.Sprintf("%.0f", p.MaxDelivery),
			fmt.Sprintf("%d", p.Delivered))
	}
	return t
}

// MemoryPoint is one cell of the optimistic-memory study.
type MemoryPoint struct {
	GVTInterval int
	MaxOptimism float64
	PeakLive    int
	RolledBack  int64
	EventRate   float64
}

// MemorySweep measures the optimistic memory footprint (peak
// executed-but-uncommitted events) as a function of GVT frequency and the
// optimism throttle — the fossil-collection trade-off behind the
// report's §4.2.3 discussion of KPs and fossil overhead.
func MemorySweep(opt Options) ([]MemoryPoint, error) {
	pes := opt.PEs
	if pes <= 0 {
		pes = 4
	}
	type cell struct {
		interval int
		maxOpt   float64
	}
	cells := []cell{{1, 0}, {4, 0}, {16, 0}, {64, 0}, {64, 2}, {64, 8}}
	var out []MemoryPoint
	for _, c := range cells {
		cfg := hotpotato.DefaultConfig(16)
		cfg.Steps = opt.steps(80)
		cfg.Seed = opt.seed()
		cfg.NumPEs = pes
		cfg.GVTInterval = c.interval
		cfg.MaxOptimism = core.Time(c.maxOpt)
		_, ks, err := runHotpotato(core.KindOptimistic, cfg)
		if err != nil {
			return nil, fmt.Errorf("interval=%d: %w", c.interval, err)
		}
		out = append(out, MemoryPoint{
			GVTInterval: c.interval,
			MaxOptimism: c.maxOpt,
			PeakLive:    ks.PeakLiveEvents,
			RolledBack:  ks.RolledBackEvents,
			EventRate:   ks.EventRate,
		})
		opt.progressf("memory: gvt=%d maxopt=%g peak=%d\n", c.interval, c.maxOpt, ks.PeakLiveEvents)
	}
	return out, nil
}

// MemoryTable renders the optimistic-memory study.
func MemoryTable(points []MemoryPoint) stats.Table {
	t := stats.Table{
		Title:  "Optimistic memory: peak uncommitted events vs GVT interval and throttle (16x16, 4 PEs)",
		Header: []string{"GVT interval", "max optimism", "peak live events", "rolled back", "event rate (ev/s)"},
	}
	for _, p := range points {
		throttle := "off"
		if p.MaxOptimism > 0 {
			throttle = fmt.Sprintf("%g steps", p.MaxOptimism)
		}
		t.AddRow(fmt.Sprintf("%d", p.GVTInterval), throttle, fmt.Sprintf("%d", p.PeakLive),
			fmt.Sprintf("%d", p.RolledBack), stats.FormatNumber(p.EventRate))
	}
	return t
}

// HeartbeatPoint is one cell of the heartbeat-overhead ablation.
type HeartbeatPoint struct {
	Heartbeat bool
	Committed int64
	EventRate float64
	Wall      time.Duration
}

// HeartbeatAblation quantifies the report's observation that the
// HEARTBEAT event is omitted "to reduce the total number of simulated
// events": same model, with and without per-router heartbeats.
func HeartbeatAblation(opt Options) ([]HeartbeatPoint, error) {
	var out []HeartbeatPoint
	for _, hb := range []bool{false, true} {
		cfg := hotpotato.DefaultConfig(16)
		cfg.Steps = opt.steps(80)
		cfg.Seed = opt.seed()
		cfg.Heartbeat = hb
		cfg.NumPEs = opt.PEs
		_, ks, err := runHotpotato(core.KindOptimistic, cfg)
		if err != nil {
			return nil, err
		}
		out = append(out, HeartbeatPoint{Heartbeat: hb, Committed: ks.Committed, EventRate: ks.EventRate, Wall: ks.Wall})
		opt.progressf("heartbeat=%v committed=%d rate=%.0f ev/s\n", hb, ks.Committed, ks.EventRate)
	}
	return out, nil
}

// TuningPoint is one cell of the scheduler-tuning ablation.
type TuningPoint struct {
	BatchSize   int
	GVTInterval int
	MaxOptimism float64 // 0 = unthrottled
	EventRate   float64
	RolledBack  int64
	GVTRounds   int64
	Wall        time.Duration
	// Committed and Totals are the cell's results, which no tuning knob may
	// change: every cell must report the same pair.
	Committed int64
	Totals    hotpotato.Totals
}

// TuningSweep explores the kernel's two scheduling knobs — events per
// batch and batches per GVT round — on the hot-potato workload. Small
// batches bound optimism (fewer rollbacks, more scheduling overhead);
// frequent GVT rounds bound memory (more token circulations). This is the
// tuning study every Time Warp deployment runs; ROSS exposes the same two
// knobs.
func TuningSweep(opt Options) ([]TuningPoint, error) {
	pes := opt.PEs
	if pes <= 0 {
		pes = 4
	}
	type cell struct {
		batch, interval int
		maxOpt          float64
	}
	var cells []cell
	for _, batch := range []int{4, 32, 128} {
		for _, interval := range []int{1, 16, 64} {
			cells = append(cells, cell{batch, interval, 0})
		}
	}
	// The over-optimistic corner, with and without the throttle — the
	// MaxOptimism feature's motivating case.
	cells = append(cells, cell{128, 64, 8})

	var out []TuningPoint
	for _, c := range cells {
		cfg := hotpotato.DefaultConfig(16)
		cfg.Steps = opt.steps(80)
		cfg.Seed = opt.seed()
		cfg.NumPEs = pes
		cfg.BatchSize = c.batch
		cfg.GVTInterval = c.interval
		cfg.MaxOptimism = core.Time(c.maxOpt)
		totals, ks, err := runHotpotato(core.KindOptimistic, cfg)
		if err != nil {
			return nil, fmt.Errorf("batch=%d interval=%d: %w", c.batch, c.interval, err)
		}
		out = append(out, TuningPoint{
			BatchSize:   c.batch,
			GVTInterval: c.interval,
			MaxOptimism: c.maxOpt,
			EventRate:   ks.EventRate,
			RolledBack:  ks.RolledBackEvents,
			GVTRounds:   ks.GVTRounds,
			Wall:        ks.Wall,
			Committed:   ks.Committed,
			Totals:      totals,
		})
		opt.progressf("tuning: batch=%d gvt=%d maxopt=%g rate=%.0f rolledback=%d\n",
			c.batch, c.interval, c.maxOpt, ks.EventRate, ks.RolledBackEvents)
	}
	return out, nil
}

// TuningTable renders the scheduler-tuning ablation.
func TuningTable(points []TuningPoint) stats.Table {
	t := stats.Table{
		Title:  "Ablation: scheduler tuning (batch size × GVT interval × optimism throttle, 16x16 torus, 4 PEs)",
		Header: []string{"batch", "GVT interval", "max optimism", "event rate (ev/s)", "rolled back", "GVT rounds"},
	}
	for _, p := range points {
		throttle := "off"
		if p.MaxOptimism > 0 {
			throttle = fmt.Sprintf("%g steps", p.MaxOptimism)
		}
		t.AddRow(fmt.Sprintf("%d", p.BatchSize), fmt.Sprintf("%d", p.GVTInterval), throttle,
			stats.FormatNumber(p.EventRate), fmt.Sprintf("%d", p.RolledBack),
			fmt.Sprintf("%d", p.GVTRounds))
	}
	return t
}

// HeartbeatTable renders the heartbeat ablation.
func HeartbeatTable(points []HeartbeatPoint) stats.Table {
	t := stats.Table{
		Title:  "Ablation: HEARTBEAT administrative events (16x16 torus)",
		Header: []string{"heartbeat", "committed events", "event rate (ev/s)", "wall"},
	}
	for _, p := range points {
		t.AddRow(fmt.Sprintf("%v", p.Heartbeat), fmt.Sprintf("%d", p.Committed),
			stats.FormatNumber(p.EventRate), p.Wall.Round(time.Millisecond).String())
	}
	return t
}
