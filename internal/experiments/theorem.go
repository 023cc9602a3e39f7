package experiments

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/hotpotato"
	"repro/internal/stats"
)

// ProfilePoint is one distance bin of the delivery-vs-distance study.
type ProfilePoint struct {
	N           int
	Distance    float64
	Count       int64
	AvgDelivery float64
}

// DistanceProfile measures E[delivery time | source-destination distance]
// on the saturated torus — the quantity the SPAA 2001 analysis bounds
// (expected O(n) delivery, growing with distance). It is the closest this
// simulation gets to checking the paper's theorem directly rather than
// through the aggregate of Figure 3.
func DistanceProfile(opt Options) ([]ProfilePoint, error) {
	n := 16
	if opt.Full {
		n = 64
	}
	cfg := hotpotato.DefaultConfig(n)
	cfg.Steps = opt.steps(12 * n)
	cfg.Seed = opt.seed()
	cfg.NumPEs = opt.PEs
	sim, model, err := hotpotato.Build(cfg)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	if _, err := sim.Run(); err != nil {
		return nil, err
	}
	var out []ProfilePoint
	for _, p := range model.DeliveryProfile(sim) {
		out = append(out, ProfilePoint{N: n, Distance: p.Distance, Count: p.Count, AvgDelivery: p.AvgDelivery})
	}
	opt.progressf("distance profile: N=%d, %d bins (%v)\n", n, len(out), time.Since(start).Round(time.Millisecond))
	return out, nil
}

// DistanceProfileTable renders the profile with its linear fit.
func DistanceProfileTable(points []ProfilePoint) stats.Table {
	t := stats.Table{
		Title:  "Delivery time vs source-destination distance (SPAA 2001: expected O(n))",
		Header: []string{"distance", "packets", "avg delivery (steps)", "delivery/distance"},
	}
	for _, p := range points {
		ratio := 0.0
		if p.Distance > 0 {
			ratio = p.AvgDelivery / p.Distance
		}
		t.AddRow(fmt.Sprintf("%.1f", p.Distance), fmt.Sprintf("%d", p.Count),
			stats.FormatNumber(p.AvgDelivery), fmt.Sprintf("%.3f", ratio))
	}
	return t
}

// ProfileLinearity fits delivery time against distance.
func ProfileLinearity(points []ProfilePoint) (slope, r2 float64) {
	var xs, ys []float64
	for _, p := range points {
		xs = append(xs, p.Distance)
		ys = append(ys, p.AvgDelivery)
	}
	slope, _, r2 = stats.LinearFit(xs, ys)
	return slope, r2
}

// WarmupPoint is one time bin of the warm-up study.
type WarmupPoint struct {
	Step        float64
	Count       int64
	AvgDelivery float64
}

// Warmup measures delivery rate and latency as functions of simulation
// time on the standard saturated torus — the methodological backdrop of
// Figure 3: the initial full network drains through a transient before
// the injection-driven steady state establishes itself.
func Warmup(opt Options) ([]WarmupPoint, error) {
	n := 16
	if opt.Full {
		n = 32
	}
	cfg := hotpotato.DefaultConfig(n)
	cfg.Steps = opt.steps(12 * n)
	cfg.Seed = opt.seed()
	cfg.NumPEs = opt.PEs
	sim, model, err := hotpotato.Build(cfg)
	if err != nil {
		return nil, err
	}
	if _, err := sim.Run(); err != nil {
		return nil, err
	}
	var out []WarmupPoint
	for _, p := range model.TimeSeries(sim) {
		out = append(out, WarmupPoint{Step: p.Step, Count: p.Count, AvgDelivery: p.AvgDelivery})
	}
	opt.progressf("warmup: N=%d, %d bins\n", n, len(out))
	return out, nil
}

// WarmupTable renders the warm-up study.
func WarmupTable(points []WarmupPoint) stats.Table {
	t := stats.Table{
		Title:  "Warm-up and steady state: deliveries and latency over simulation time",
		Header: []string{"step", "deliveries", "avg delivery (steps)"},
	}
	for _, p := range points {
		t.AddRow(fmt.Sprintf("%.0f", p.Step), fmt.Sprintf("%d", p.Count),
			stats.FormatNumber(p.AvgDelivery))
	}
	return t
}

// WarmupChart plots the latency series.
func WarmupChart(points []WarmupPoint) stats.Chart {
	var xs, ys []float64
	for _, p := range points {
		xs = append(xs, p.Step)
		ys = append(ys, p.AvgDelivery)
	}
	return stats.Chart{
		Title:  "Mean delivery latency over simulation time",
		XLabel: "step", YLabel: "steps",
		X:      xs,
		Series: []stats.ChartSeries{{Name: "avg delivery", Y: ys}},
	}
}

// RatePoint is one injection-rate cell of the variable-rate study.
type RatePoint struct {
	Rate        float64 // packets per injector per step (InjectionProb)
	Generated   int64
	Injected    int64
	AvgWait     float64
	MaxWait     float64
	StillQueued int64
	AvgDelivery float64
}

// RateSweep varies the per-injector generation rate on a fixed network —
// the report's §1.2.3 point that bounded injection lets the network serve
// high-speed and low-speed sources simultaneously: below the network's
// service capacity waits stay flat; saturating sources queue up.
func RateSweep(opt Options) ([]RatePoint, error) {
	n := 16
	if opt.Full {
		n = 32
	}
	var out []RatePoint
	for _, rate := range []float64{0.1, 0.25, 0.5, 0.75, 1.0} {
		cfg := hotpotato.DefaultConfig(n)
		cfg.InjectionProb = rate
		cfg.Steps = opt.steps(8 * n)
		cfg.Seed = opt.seed()
		cfg.NumPEs = opt.PEs
		totals, _, err := runHotpotato(core.KindOptimistic, cfg)
		if err != nil {
			return nil, fmt.Errorf("rate %.2f: %w", rate, err)
		}
		out = append(out, RatePoint{
			Rate:        rate,
			Generated:   totals.Generated,
			Injected:    totals.Injected,
			AvgWait:     totals.AvgWait,
			MaxWait:     totals.MaxWait,
			StillQueued: totals.StillQueued,
			AvgDelivery: totals.AvgDelivery,
		})
		opt.progressf("rates: %.2f pkt/step wait=%.2f queued=%d\n", rate, totals.AvgWait, totals.StillQueued)
	}
	return out, nil
}

// RateTable renders the variable-rate study.
func RateTable(points []RatePoint) stats.Table {
	t := stats.Table{
		Title: "Variable injection rates: per-source load vs injection wait (16x16 torus)",
		Header: []string{"rate (pkt/step)", "generated", "injected", "avg wait", "max wait",
			"backlog", "avg delivery"},
	}
	for _, p := range points {
		t.AddRow(fmt.Sprintf("%.2f", p.Rate), fmt.Sprintf("%d", p.Generated),
			fmt.Sprintf("%d", p.Injected), stats.FormatNumber(p.AvgWait),
			fmt.Sprintf("%.0f", p.MaxWait), fmt.Sprintf("%d", p.StillQueued),
			stats.FormatNumber(p.AvgDelivery))
	}
	return t
}
