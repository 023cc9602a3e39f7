package experiments

import (
	"errors"
	"fmt"

	"repro/internal/core"
	"repro/internal/stats"
)

// loads is the report's injector percentages for Figures 3 and 4.
var loads = []float64{0, 50, 75, 100}

// delivery is the Figure 3/4 grid: network sizes × injector loads.
var delivery Sweep = func(opt Options) []Run {
	var runs []Run
	for _, n := range opt.networkSizes() {
		for _, load := range loads {
			cfg := opt.config(n, deliverySteps(n))
			cfg.InjectorPercent = load
			runs = append(runs, optimistic(cfg))
		}
	}
	return runs
}

// deliverySteps keeps the measurement window proportional to the network
// so packets at every size see a steady-state mix.
func deliverySteps(n int) int {
	return max(4*n, 60)
}

// loadFigure draws one Figure 3/4 series: a row per N, a column per
// injector load, and the fit of the saturated column against N.
func loadFigure(runs []Run, title, chartTitle, ylabel string, value func(Run) float64) (Output, error) {
	g := pivot(runs, func(r Run) int { return r.Cfg.N }, func(r Run) int { return int(r.Cfg.InjectorPercent) })
	t := g.table(title, []string{"N"}, func(l int) string { return fmt.Sprintf("%d%% injectors", l) },
		func(n int) []string { return []string{fmt.Sprint(n)} },
		func(r Run) string { return stats.FormatNumber(value(r)) })
	slope, r2 := linearity(runs, value)
	return Output{
		Table: t,
		Chart: g.chart(chartTitle, "N", ylabel, func(l int) string { return fmt.Sprintf("%d%%", l) }, value),
		Text:  fmt.Sprintf("linearity (100%% load): slope=%.3f steps/N, R²=%.3f\n", slope, r2),
	}, nil
}

// linearity quantifies the report's headline claim on the saturated runs:
// delivery time (or wait) grows approximately linearly in N.
func linearity(runs []Run, value func(Run) float64) (slope, r2 float64) {
	var xs, ys []float64
	for _, r := range runs {
		if r.Cfg.InjectorPercent == 100 {
			xs = append(xs, float64(r.Cfg.N))
			ys = append(ys, value(r))
		}
	}
	slope, _, r2 = stats.LinearFit(xs, ys)
	return slope, r2
}

func fig3(runs []Run) (Output, error) {
	return loadFigure(runs, "Figure 3: average packet delivery time (steps) vs network diameter",
		"Figure 3: packet delivery time vs network diameter", "avg delivery (steps)",
		func(r Run) float64 { return r.Totals.AvgDelivery })
}

func fig4(runs []Run) (Output, error) {
	return loadFigure(runs, "Figure 4: average wait to inject a packet (steps) vs network diameter",
		"Figure 4: wait to inject vs network diameter", "avg wait (steps)",
		func(r Run) float64 { return r.Totals.AvgWait })
}

// peSweep is the processor ladder of Figures 5 and 6; the report's quad
// PC gives {1, 2, 4}. The 1-processor row is the true sequential engine,
// exactly as the report's "sequential mode".
var peSweep = []int{1, 2, 4}

// speedup measures event rate across network sizes and PE counts.
var speedup Sweep = func(opt Options) []Run {
	var runs []Run
	for _, n := range opt.networkSizes() {
		for _, pes := range peSweep {
			cfg := opt.config(n, speedupSteps(n))
			cfg.NumPEs = pes
			r := optimistic(cfg)
			if pes == 1 {
				r.Kind = core.KindSequential
			}
			runs = append(runs, r)
		}
	}
	return runs
}

// speedupSteps keeps speed-up runs long enough to dominate start-up cost
// but short enough for the big sizes.
func speedupSteps(n int) int {
	switch {
	case n <= 16:
		return 200
	case n <= 64:
		return 100
	default:
		return 40
	}
}

func byPEs(runs []Run) grid {
	return pivot(runs, func(r Run) int { return r.Cfg.N }, func(r Run) int { return r.Cfg.NumPEs })
}

func peName(pes int) string { return fmt.Sprintf("%d PE", pes) }

func eventRate(r Run) float64 { return r.Stats.EventRate }

func fig5(runs []Run) (Output, error) {
	g := byPEs(runs)
	return Output{
		Table: g.table("Figure 5: parallel speed-up — event rate (events/s) vs network diameter",
			[]string{"N", "LPs"}, peName,
			func(n int) []string { return []string{fmt.Sprint(n), fmt.Sprint(n * n)} },
			func(r Run) string { return stats.FormatNumber(eventRate(r)) }),
		Chart: g.chart("Figure 5: parallel speed-up — event rate vs network diameter",
			"N", "events/s", peName, eventRate),
	}, nil
}

// efficiency is Figure 6's value for r: rate(P) / (P × rate(1)) at r's N.
func efficiency(g grid, r Run) float64 {
	base := g.at[[2]int{r.Cfg.N, 1}].Stats.EventRate
	if base == 0 {
		return 0
	}
	return r.Stats.EventRate / (float64(r.Cfg.NumPEs) * base)
}

func fig6(runs []Run) (Output, error) {
	g := byPEs(runs)
	return Output{Table: g.table("Figure 6: efficiency (speed-up / #PE) vs network diameter",
		[]string{"N"}, peName, func(n int) []string { return []string{fmt.Sprint(n)} },
		func(r Run) string { return fmt.Sprintf("%.3f", efficiency(g, r)) })}, nil
}

// kpCounts is the KP ladder of Figures 7 and 8.
func (o Options) kpCounts() []int {
	if o.Full {
		return []int{4, 8, 16, 32, 64, 128, 256}
	}
	return []int{4, 8, 16, 32, 64}
}

// kpNetworkSizes matches the report's Figure 7/8 size series (16×16 up to
// 256×256 under Full).
func (o Options) kpNetworkSizes() []int {
	if o.Full {
		return []int{16, 32, 64, 128, 256}
	}
	return []int{16, 32}
}

// kpSweep measures rollback volume and event rate across KP counts, the
// report's §4.2.3 study. The PE count is fixed so only rollback
// granularity varies.
var kpSweep Sweep = func(opt Options) []Run {
	var runs []Run
	for _, n := range opt.kpNetworkSizes() {
		for _, kps := range opt.kpCounts() {
			if kps < opt.pes() {
				continue
			}
			cfg := opt.config(n, kpSteps(n))
			cfg.NumKPs = kps
			runs = append(runs, optimistic(cfg))
		}
	}
	return runs
}

func kpSteps(n int) int {
	switch {
	case n <= 32:
		return 120
	case n <= 64:
		return 60
	default:
		return 30
	}
}

// kpFigure draws one Figure 7/8 series: a row per KP count, a column (and
// chart series) per network size. The report splits Figure 7 across three
// scales; one table carries the same data.
func kpFigure(runs []Run, title, chartTitle, ylabel string, value func(Run) float64) (Output, error) {
	g := pivot(runs, func(r Run) int { return r.Cfg.NumKPs }, func(r Run) int { return r.Cfg.N })
	size := func(n int) string { return fmt.Sprintf("%dx%d", n, n) }
	return Output{
		Table: g.table(title, []string{"KPs"}, size, func(k int) []string { return []string{fmt.Sprint(k)} },
			func(r Run) string { return stats.FormatNumber(value(r)) }),
		Chart: g.chart(chartTitle, "KPs", ylabel, size, value),
	}, nil
}

func rolledBack(r Run) float64 { return float64(r.Stats.RolledBackEvents) }

func fig7(runs []Run) (Output, error) {
	return kpFigure(runs, "Figure 7: total events rolled back vs number of KPs",
		"Figure 7: total events rolled back vs number of KPs", "events rolled back", rolledBack)
}

func fig8(runs []Run) (Output, error) {
	return kpFigure(runs, "Figure 8: event rate (events/s) vs number of KPs",
		"Figure 8: event rate vs number of KPs", "events/s", eventRate)
}

// determinism is the Attachment 3 reproduction: the same configuration on
// the sequential engine and on Time Warp.
var determinism Sweep = func(opt Options) []Run {
	n := 16
	if opt.Full {
		n = 32
	}
	cfg := opt.config(n, 50)
	par := optimistic(cfg)
	par.Cfg.NumKPs = 16 * cfg.NumPEs
	return []Run{{Cfg: cfg, Kind: core.KindSequential}, par}
}

// renderDeterminism compares every aggregate of the two runs — the
// report's sample-output equality check.
func renderDeterminism(runs []Run) (Output, error) {
	seq, par := runs[0], runs[1]
	text := fmt.Sprintf("Attachment 3: determinism check (sequential vs %d PEs / %d KPs)\nsequential:\n%vparallel:\n%v",
		par.Cfg.NumPEs, par.Cfg.NumKPs, seq.Totals, par.Totals)
	if seq.Totals != par.Totals {
		return Output{Text: text + "RESULT: MISMATCH — determinism violated\n"}, errors.New("determinism violated")
	}
	return Output{Text: text + "RESULT: identical — the parallel model is deterministic and repeatable\n"}, nil
}
