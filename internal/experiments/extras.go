package experiments

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/hotpotato"
	"repro/internal/phold"
	"repro/internal/routing"
	"repro/internal/stats"
	"repro/internal/traffic"
)

// This file holds the studies beyond the report's figures: baseline
// policies, traffic patterns, topology, injection rates, the delivery
// profile and warm-up series, and the kernel ablations.

// baselines compares the paper's algorithm against the baseline
// deflection policies on the standard saturated workload.
var baselines Sweep = func(opt Options) []Run {
	sizes := []int{8, 16}
	if opt.Full {
		sizes = []int{8, 16, 32, 64}
	}
	var runs []Run
	for _, name := range routing.Names() {
		for _, n := range sizes {
			cfg := opt.config(n, deliverySteps(n))
			cfg.Policy, _ = routing.ByName(name) // every listed name resolves
			runs = append(runs, optimistic(cfg))
		}
	}
	return runs
}

func renderBaselines(runs []Run) (Output, error) {
	return Output{Table: table("Baseline comparison: deflection policies on the saturated torus",
		[]string{"policy", "N", "avg delivery", "deflection rate", "avg inject wait", "delivered"}, runs,
		func(r Run) []string {
			t := r.Totals
			return []string{r.Cfg.Policy.Name(), fmt.Sprint(r.Cfg.N), stats.FormatNumber(t.AvgDelivery),
				fmt.Sprintf("%.4f", t.DeflectionRate), stats.FormatNumber(t.AvgWait), fmt.Sprint(t.Delivered)}
		})}, nil
}

// patterns evaluates the paper's algorithm under the standard synthetic
// traffic suite on a saturated torus. Uniform random traffic is the
// report's workload; the permutation and hotspot patterns probe the
// deflection behaviour the optical-switching use case cares about.
var patterns Sweep = func(opt Options) []Run {
	n := 16
	if opt.Full {
		n = 32
	}
	var runs []Run
	for _, name := range traffic.Names() {
		cfg := opt.config(n, 8*n)
		cfg.Traffic, _ = traffic.ByName(name) // every listed name resolves
		runs = append(runs, optimistic(cfg))
	}
	return runs
}

func renderPatterns(runs []Run) (Output, error) {
	return Output{Table: table("Traffic patterns: the algorithm under the synthetic suite (saturated torus)",
		[]string{"pattern", "avg delivery", "max", "avg distance", "stretch", "deflection rate", "avg wait", "delivered"},
		runs, func(r Run) []string {
			t := r.Totals
			return []string{r.Cfg.Traffic.Name(), stats.FormatNumber(t.AvgDelivery),
				fmt.Sprintf("%.0f", t.MaxDelivery), stats.FormatNumber(t.AvgDistance),
				fmt.Sprintf("%.3f", t.Stretch), fmt.Sprintf("%.4f", t.DeflectionRate),
				stats.FormatNumber(t.AvgWait), fmt.Sprint(t.Delivered)}
		})}, nil
}

// topology compares the torus against the mesh at equal N — the report's
// §1.1 rationale for simulating the torus: wrap-around halves the maximum
// distance (N-1 vs 2(N-1)), and boundary nodes stop being special.
var topology Sweep = func(opt Options) []Run {
	sizes := []int{8, 16}
	if opt.Full {
		sizes = []int{8, 16, 32}
	}
	var runs []Run
	for _, topo := range []string{"torus", "mesh"} {
		for _, n := range sizes {
			cfg := opt.config(n, 8*n)
			cfg.Topology = topo
			cfg.InitialFill = 2 // mesh corners have degree 2
			runs = append(runs, optimistic(cfg))
		}
	}
	return runs
}

func renderTopology(runs []Run) (Output, error) {
	return Output{Table: table("Topology: torus vs mesh at equal N (report §1.1)",
		[]string{"topology", "N", "avg distance", "avg delivery", "max delivery", "delivered"}, runs,
		func(r Run) []string {
			t := r.Totals
			return []string{r.Cfg.Topology, fmt.Sprint(r.Cfg.N), stats.FormatNumber(t.AvgDistance),
				stats.FormatNumber(t.AvgDelivery), fmt.Sprintf("%.0f", t.MaxDelivery), fmt.Sprint(t.Delivered)}
		})}, nil
}

// rates varies the per-injector generation rate on a fixed network — the
// report's §1.2.3 point that bounded injection lets the network serve
// high-speed and low-speed sources simultaneously: below the network's
// service capacity waits stay flat; saturating sources queue up.
var rates Sweep = func(opt Options) []Run {
	n := 16
	if opt.Full {
		n = 32
	}
	var runs []Run
	for _, rate := range []float64{0.1, 0.25, 0.5, 0.75, 1.0} {
		cfg := opt.config(n, 8*n)
		cfg.InjectionProb = rate
		runs = append(runs, optimistic(cfg))
	}
	return runs
}

func renderRates(runs []Run) (Output, error) {
	return Output{Table: table(
		fmt.Sprintf("Variable injection rates: per-source load vs injection wait (%s)", torus(runs[0].Cfg)),
		[]string{"rate (pkt/step)", "generated", "injected", "avg wait", "max wait", "backlog", "avg delivery"},
		runs, func(r Run) []string {
			t := r.Totals
			return []string{fmt.Sprintf("%.2f", r.Cfg.InjectionProb), fmt.Sprint(t.Generated),
				fmt.Sprint(t.Injected), stats.FormatNumber(t.AvgWait), fmt.Sprintf("%.0f", t.MaxWait),
				fmt.Sprint(t.StillQueued), stats.FormatNumber(t.AvgDelivery)}
		})}, nil
}

// distance measures E[delivery time | source-destination distance] on the
// saturated torus — the quantity the SPAA 2001 analysis bounds (expected
// O(n) delivery, growing with distance). It is the closest this simulation
// gets to checking the paper's theorem directly rather than through the
// aggregate of Figure 3.
var distance Sweep = func(opt Options) []Run {
	n := 16
	if opt.Full {
		n = 64
	}
	return []Run{optimistic(opt.config(n, 12*n))}
}

func renderDistance(runs []Run) (Output, error) {
	points := runs[0].Profile
	t := stats.Table{
		Title:  "Delivery time vs source-destination distance (SPAA 2001: expected O(n))",
		Header: []string{"distance", "packets", "avg delivery (steps)", "delivery/distance"},
	}
	c := &stats.Chart{Title: "Delivery time vs distance (SPAA 2001: expected O(n))",
		XLabel: "source-destination distance", YLabel: "steps",
		Series: []stats.ChartSeries{{Name: "measured"}, {Name: "1 step/hop ideal"}}}
	for _, p := range points {
		ratio := 0.0
		if p.Distance > 0 {
			ratio = p.AvgDelivery / p.Distance
		}
		t.AddRow(fmt.Sprintf("%.1f", p.Distance), fmt.Sprint(p.Count), stats.FormatNumber(p.AvgDelivery),
			fmt.Sprintf("%.3f", ratio))
		c.X = append(c.X, p.Distance)
		c.Series[0].Y = append(c.Series[0].Y, p.AvgDelivery)
		c.Series[1].Y = append(c.Series[1].Y, p.Distance)
	}
	slope, r2 := profileFit(points)
	text := fmt.Sprintf("linearity: slope=%.3f steps/hop, R²=%.3f\n", slope, r2)
	return Output{Table: t, Chart: c, Text: text}, nil
}

// profileFit fits delivery time against distance.
func profileFit(points []hotpotato.DistPoint) (slope, r2 float64) {
	var xs, ys []float64
	for _, p := range points {
		xs = append(xs, p.Distance)
		ys = append(ys, p.AvgDelivery)
	}
	slope, _, r2 = stats.LinearFit(xs, ys)
	return slope, r2
}

// warmup measures delivery latency as a function of simulation time on the
// standard saturated torus — the methodological backdrop of Figure 3: the
// initial full network drains through a transient before the
// injection-driven steady state establishes itself.
var warmup Sweep = func(opt Options) []Run {
	n := 16
	if opt.Full {
		n = 32
	}
	return []Run{optimistic(opt.config(n, 12*n))}
}

func renderWarmup(runs []Run) (Output, error) {
	t := stats.Table{
		Title:  "Warm-up and steady state: deliveries and latency over simulation time",
		Header: []string{"step", "deliveries", "avg delivery (steps)"},
	}
	c := &stats.Chart{Title: "Mean delivery latency over simulation time", XLabel: "step", YLabel: "steps",
		Series: []stats.ChartSeries{{Name: "avg delivery"}}}
	for _, p := range runs[0].Series {
		t.AddRow(fmt.Sprintf("%.0f", p.Step), fmt.Sprint(p.Count), stats.FormatNumber(p.AvgDelivery))
		c.X = append(c.X, p.Step)
		c.Series[0].Y = append(c.Series[0].Y, p.AvgDelivery)
	}
	return Output{Table: t, Chart: c}, nil
}

// heartbeat quantifies the report's observation that the HEARTBEAT event
// is omitted "to reduce the total number of simulated events": same model,
// with and without per-router heartbeats.
var heartbeat Sweep = func(opt Options) []Run {
	var runs []Run
	for _, hb := range []bool{false, true} {
		cfg := opt.config(16, 80)
		cfg.Heartbeat = hb
		runs = append(runs, optimistic(cfg))
	}
	return runs
}

func renderHeartbeat(runs []Run) (Output, error) {
	return Output{Table: table(fmt.Sprintf("Ablation: HEARTBEAT administrative events (%s)", torus(runs[0].Cfg)),
		[]string{"heartbeat", "committed events", "event rate (ev/s)", "wall"}, runs,
		func(r Run) []string {
			return []string{fmt.Sprint(r.Cfg.Heartbeat), fmt.Sprint(r.Stats.Committed),
				stats.FormatNumber(r.Stats.EventRate), r.Stats.Wall.Round(time.Millisecond).String()}
		})}, nil
}

// tuning explores the kernel's two scheduling knobs — events per batch and
// batches per GVT round — on the hot-potato workload. Small batches bound
// optimism (fewer rollbacks, more scheduling overhead); frequent GVT rounds
// bound memory (more token circulations). This is the tuning study every
// Time Warp deployment runs; ROSS exposes the same two knobs. The last
// cell is the over-optimistic corner with the throttle on — the
// MaxOptimism feature's motivating case.
var tuning Sweep = func(opt Options) []Run {
	var runs []Run
	add := func(batch, interval int, maxOpt core.Time) {
		cfg := opt.config(16, 80)
		cfg.BatchSize, cfg.GVTInterval, cfg.MaxOptimism = batch, interval, maxOpt
		runs = append(runs, optimistic(cfg))
	}
	for _, batch := range []int{4, 32, 128} {
		for _, interval := range []int{1, 16, 64} {
			add(batch, interval, 0)
		}
	}
	add(128, 64, 8)
	return runs
}

func renderTuning(runs []Run) (Output, error) {
	return Output{Table: table(
		fmt.Sprintf("Ablation: scheduler tuning (batch size × GVT interval × optimism throttle, %s, %d PEs)",
			torus(runs[0].Cfg), runs[0].Cfg.NumPEs),
		[]string{"batch", "GVT interval", "max optimism", "event rate (ev/s)", "rolled back", "GVT rounds"}, runs,
		func(r Run) []string {
			return []string{fmt.Sprint(r.Cfg.BatchSize), fmt.Sprint(r.Cfg.GVTInterval),
				throttle(r.Cfg.MaxOptimism), stats.FormatNumber(r.Stats.EventRate),
				fmt.Sprint(r.Stats.RolledBackEvents), fmt.Sprint(r.Stats.GVTRounds)}
		})}, nil
}

// memory measures the optimistic memory footprint (peak
// executed-but-uncommitted events) as a function of GVT frequency and the
// optimism throttle — the fossil-collection trade-off behind the report's
// §4.2.3 discussion of KPs and fossil overhead.
var memory Sweep = func(opt Options) []Run {
	var runs []Run
	for _, c := range []struct {
		interval int
		maxOpt   core.Time
	}{{1, 0}, {4, 0}, {16, 0}, {64, 0}, {64, 2}, {64, 8}} {
		cfg := opt.config(16, 80)
		cfg.GVTInterval, cfg.MaxOptimism = c.interval, c.maxOpt
		runs = append(runs, optimistic(cfg))
	}
	return runs
}

func renderMemory(runs []Run) (Output, error) {
	cfg := runs[0].Cfg
	return Output{Table: table(
		fmt.Sprintf("Optimistic memory: peak uncommitted events vs GVT interval and throttle (%dx%d, %d PEs)",
			cfg.N, cfg.N, cfg.NumPEs),
		[]string{"GVT interval", "max optimism", "peak live events", "rolled back", "event rate (ev/s)"}, runs,
		func(r Run) []string {
			return []string{fmt.Sprint(r.Cfg.GVTInterval), throttle(r.Cfg.MaxOptimism),
				fmt.Sprint(r.Stats.PeakLiveEvents), fmt.Sprint(r.Stats.RolledBackEvents),
				stats.FormatNumber(r.Stats.EventRate)}
		})}, nil
}

// syncSweep runs the same workloads under all three execution engines: the
// sequential reference, optimistic Time Warp, and the conservative
// window-synchronous executor. Two workloads frame the classic trade-off:
//
//   - hot-potato routing (lookahead 0.05 steps of dense activity):
//     the conservative engine needs ~20 barrier windows per step;
//   - PHOLD at increasing lookahead: conservative performance climbs with
//     lookahead while Time Warp barely notices — Fujimoto's textbook
//     result, reproduced on this kernel.
var syncSweep Sweep = func(opt Options) []Run {
	var runs []Run
	hp := opt.config(16, 60)
	for _, kind := range []core.EngineKind{core.KindSequential, core.KindOptimistic, core.KindConservative} {
		runs = append(runs, Run{Cfg: hp, Kind: kind})
	}
	for _, la := range []float64{0.01, 0.1, 1.0} {
		pcfg := &phold.Config{
			NumLPs:     1024,
			Population: 8,
			RemoteProb: 0.5,
			Lookahead:  la,
			EndTime:    core.Time(opt.steps(30)),
			Seed:       opt.seed(),
			NumPEs:     opt.pes(),
		}
		for _, kind := range []core.EngineKind{core.KindOptimistic, core.KindConservative} {
			runs = append(runs, Run{PHOLD: pcfg, Kind: kind})
		}
	}
	return runs
}

func renderSync(runs []Run) (Output, error) {
	return Output{Table: table("Synchronisation comparison: sequential vs Time Warp vs conservative",
		[]string{"workload", "engine", "lookahead", "event rate (ev/s)", "committed", "rounds", "rolled back"}, runs,
		func(r Run) []string {
			lookahead := float64(hotpotato.Lookahead)
			if r.PHOLD != nil {
				lookahead = r.PHOLD.Lookahead
			}
			return []string{r.workload(), string(r.Kind), fmt.Sprintf("%g", lookahead),
				stats.FormatNumber(r.Stats.EventRate), fmt.Sprint(r.Stats.Committed),
				fmt.Sprint(r.Stats.GVTRounds), fmt.Sprint(r.Stats.RolledBackEvents)}
		})}, nil
}
