// Package experiments regenerates the report's figures — Figures 3–8 and
// Attachment 3 — and the extra studies of DESIGN.md's experiment index.
//
// Each figure is one entry of Figures: a Sweep declaring the runs it is
// drawn from and a Render turning those runs, once executed, into a table,
// an optional chart and text notes. Every run of every figure is one Run
// record, executed by one loop (Sweep.Runs). cmd/figures and the
// repository-root benchmarks both draw the entries of Figures.
package experiments

import (
	"fmt"
	"io"
	"slices"
	"time"

	"repro/internal/core"
	"repro/internal/hotpotato"
	"repro/internal/phold"
	"repro/internal/stats"
)

// Options scales the sweeps. The zero value gives laptop-quick settings;
// Full approaches the report's ranges (N up to 256 — 65 536 LPs — which
// takes serious time and memory).
type Options struct {
	// Full selects the report-scale sweep dimensions.
	Full bool
	// Steps overrides the per-figure default simulation length.
	Steps int
	// Seed selects the random universe (default 1).
	Seed uint64
	// PEs is the PE count of every run whose figure does not sweep it
	// (default 4, the report's quad machine).
	PEs int
	// Progress, when non-nil, receives one line per completed run.
	Progress io.Writer
}

func (o Options) seed() uint64 {
	if o.Seed == 0 {
		return 1
	}
	return o.Seed
}

func (o Options) steps(def int) int {
	if o.Steps > 0 {
		return o.Steps
	}
	return def
}

func (o Options) pes() int {
	if o.PEs > 0 {
		return o.PEs
	}
	return 4
}

// config is the default n×n hot-potato configuration with the options'
// seed and PE count, run for def steps unless Steps overrides it.
func (o Options) config(n, def int) hotpotato.Config {
	cfg := hotpotato.DefaultConfig(n)
	cfg.Steps = o.steps(def)
	cfg.Seed = o.seed()
	cfg.NumPEs = o.pes()
	return cfg
}

// networkSizes returns the N sweep: a quick ladder by default, the
// report's 8…256 range under Full.
func (o Options) networkSizes() []int {
	if o.Full {
		return []int{8, 16, 32, 48, 64, 96, 128, 192, 256}
	}
	return []int{8, 16, 24, 32}
}

// Run is one simulation of a sweep: what ran and what it produced. A sweep
// declares Cfg and Kind (or PHOLD); Sweep.Runs fills in the rest.
type Run struct {
	Cfg  hotpotato.Config
	Kind core.EngineKind
	// PHOLD, when set, is run instead of Cfg (the sync figure's second
	// workload); Totals, Profile and Series then stay empty.
	PHOLD *phold.Config

	Totals  hotpotato.Totals
	Stats   core.Stats
	Profile []hotpotato.DistPoint // delivery time by source-destination distance
	Series  []hotpotato.TimePoint // delivery time by simulation time
}

// optimistic declares one Time Warp run of cfg.
func optimistic(cfg hotpotato.Config) Run {
	return Run{Cfg: cfg, Kind: core.KindOptimistic}
}

// workload names the model and size the run simulated.
func (r Run) workload() string {
	if r.PHOLD != nil {
		return fmt.Sprintf("phold-%d", r.PHOLD.NumLPs)
	}
	return fmt.Sprintf("hotpotato-%d", r.Cfg.N)
}

func (r *Run) execute() error {
	var (
		eng   core.Engine
		model *hotpotato.Model
		err   error
	)
	if r.PHOLD != nil {
		eng, _, err = phold.BuildEngine(r.Kind, *r.PHOLD)
	} else {
		eng, model, err = hotpotato.BuildEngine(r.Kind, r.Cfg)
	}
	if err != nil {
		return err
	}
	ks, err := eng.Run()
	if err != nil {
		return err
	}
	r.Stats = *ks
	if model != nil {
		r.Totals = model.Totals(eng)
		r.Profile = model.DeliveryProfile(eng)
		r.Series = model.TimeSeries(eng)
	}
	return nil
}

// A Sweep declares the runs one or more figures are drawn from.
type Sweep func(Options) []Run

// Runs executes the sweep's runs in order, writing one progress line each.
func (s Sweep) Runs(opt Options) ([]Run, error) {
	runs := s(opt)
	for i := range runs {
		r := &runs[i]
		if err := r.execute(); err != nil {
			return nil, fmt.Errorf("run %d (%s %s): %w", i+1, r.Kind, r.workload(), err)
		}
		if opt.Progress != nil {
			fmt.Fprintf(opt.Progress, "run %d/%d: %s %s on %d PEs: %d committed, %.0f ev/s (%v)\n",
				i+1, len(runs), r.Kind, r.workload(), r.Stats.NumPEs, r.Stats.Committed,
				r.Stats.EventRate, r.Stats.Wall.Round(time.Millisecond))
		}
	}
	return runs, nil
}

// Figure is one entry of the experiment index.
type Figure struct {
	Name string
	// Sweep declares the figure's runs. Figures drawn from the same runs
	// (3 and 4, 5 and 6, 7 and 8) share one *Sweep, so a caller drawing
	// them in a row can run it once.
	Sweep *Sweep
	// Render draws the figure from its sweep's executed runs. It fails
	// when the runs contradict the figure's claim (Attachment 3's
	// determinism check).
	Render func([]Run) (Output, error)
}

// Output is a rendered figure.
type Output struct {
	Table stats.Table // no Header: the figure is text only
	Chart *stats.Chart
	// Text holds lines printed after the table and chart (fits, verdicts).
	Text string
}

// Figures is the experiment index in report order; the names are
// cmd/figures' -fig values.
var Figures = []Figure{
	{"3", &delivery, fig3},
	{"4", &delivery, fig4},
	{"5", &speedup, fig5},
	{"6", &speedup, fig6},
	{"7", &kpSweep, fig7},
	{"8", &kpSweep, fig8},
	{"determinism", &determinism, renderDeterminism},
	{"baselines", &baselines, renderBaselines},
	{"heartbeat", &heartbeat, renderHeartbeat},
	{"distance", &distance, renderDistance},
	{"rates", &rates, renderRates},
	{"tuning", &tuning, renderTuning},
	{"sync", &syncSweep, renderSync},
	{"patterns", &patterns, renderPatterns},
	{"memory", &memory, renderMemory},
	{"topology", &topology, renderTopology},
	{"warmup", &warmup, renderWarmup},
}

// table lists one row per run.
func table(title string, header []string, runs []Run, row func(Run) []string) stats.Table {
	t := stats.Table{Title: title, Header: header}
	for _, r := range runs {
		t.AddRow(row(r)...)
	}
	return t
}

// grid is runs pivoted into row and column keys, each in first-seen order:
// the one shape behind both the tables and the charts of Figures 3–8.
type grid struct {
	rows, cols []int
	at         map[[2]int]Run
}

func pivot(runs []Run, row, col func(Run) int) grid {
	g := grid{at: map[[2]int]Run{}}
	for _, r := range runs {
		k := [2]int{row(r), col(r)}
		if !slices.Contains(g.rows, k[0]) {
			g.rows = append(g.rows, k[0])
		}
		if !slices.Contains(g.cols, k[1]) {
			g.cols = append(g.cols, k[1])
		}
		g.at[k] = r
	}
	return g
}

// table renders one row per row key: lead's cells, then one cell per
// column key ("-" where no run landed).
func (g grid) table(title string, head []string, colName func(int) string,
	lead func(int) []string, cell func(Run) string) stats.Table {
	t := stats.Table{Title: title, Header: head}
	for _, c := range g.cols {
		t.Header = append(t.Header, colName(c))
	}
	for _, row := range g.rows {
		cells := lead(row)
		for _, c := range g.cols {
			v := "-"
			if r, ok := g.at[[2]int{row, c}]; ok {
				v = cell(r)
			}
			cells = append(cells, v)
		}
		t.AddRow(cells...)
	}
	return t
}

// chart plots every complete column as one series over the row keys.
func (g grid) chart(title, xlabel, ylabel string, name func(int) string, value func(Run) float64) *stats.Chart {
	c := &stats.Chart{Title: title, XLabel: xlabel, YLabel: ylabel}
	for _, row := range g.rows {
		c.X = append(c.X, float64(row))
	}
	for _, col := range g.cols {
		s := stats.ChartSeries{Name: name(col)}
		for _, row := range g.rows {
			if r, ok := g.at[[2]int{row, col}]; ok {
				s.Y = append(s.Y, value(r))
			}
		}
		if len(s.Y) == len(c.X) {
			c.Series = append(c.Series, s)
		}
	}
	return c
}

// torus names a configuration's network, e.g. "16x16 torus".
func torus(cfg hotpotato.Config) string {
	return fmt.Sprintf("%dx%d %s", cfg.N, cfg.N, cfg.Topology)
}

// throttle renders a MaxOptimism window.
func throttle(m core.Time) string {
	if m > 0 {
		return fmt.Sprintf("%g steps", float64(m))
	}
	return "off"
}
