// Package experiments regenerates every figure of the report:
//
//	Figure 3   — average packet delivery time vs network diameter N
//	Figure 4   — average wait to inject vs N
//	Figure 5   — parallel speed-up (event rate vs N for 1/2/4 PEs)
//	Figure 6   — efficiency (speed-up per PE)
//	Figure 7   — total events rolled back vs number of KPs
//	Figure 8   — event rate vs number of KPs
//	Attachment 3 — sequential vs parallel determinism check
//
// plus the extra studies DESIGN.md calls out: the baseline-policy
// comparison and the event-queue and heartbeat ablations.
//
// Each figure has a sweep function returning typed points and a table
// builder rendering the same rows/series the report plots. cmd/figures is
// the CLI wrapper and the repository-root benchmarks reuse the sweeps at
// reduced scale.
package experiments

import (
	"fmt"
	"io"
	"time"

	"repro/internal/core"
	"repro/internal/hotpotato"
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
	// PEs overrides the PE count for figures that do not sweep it
	// (default: kernel default, i.e. GOMAXPROCS).
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

func (o Options) progressf(format string, args ...any) {
	if o.Progress != nil {
		fmt.Fprintf(o.Progress, format, args...)
	}
}

// networkSizes returns the N sweep: a quick ladder by default, the
// report's 8…256 range under Full.
func (o Options) networkSizes() []int {
	if o.Full {
		return []int{8, 16, 32, 48, 64, 96, 128, 192, 256}
	}
	return []int{8, 16, 24, 32}
}

// loads is the report's injector percentages for Figures 3 and 4.
var loads = []float64{0, 50, 75, 100}

// runHotpotato builds and runs one hot-potato configuration on the named
// engine.
func runHotpotato(kind core.EngineKind, cfg hotpotato.Config) (hotpotato.Totals, *core.Stats, error) {
	eng, model, err := hotpotato.BuildEngine(kind, cfg)
	if err != nil {
		return hotpotato.Totals{}, nil, err
	}
	ks, err := eng.Run()
	if err != nil {
		return hotpotato.Totals{}, nil, err
	}
	return model.Totals(eng), ks, nil
}

// LoadPoint is one (N, load) cell of the Figure 3/4 sweep.
type LoadPoint struct {
	N           int
	LoadPct     float64
	AvgDelivery float64
	AvgDistance float64
	AvgWait     float64
	MaxWait     float64
	Delivered   int64
	Injected    int64
	Wall        time.Duration
}

// DeliverySweep runs the Figure 3/4 grid: network sizes × injector loads.
func DeliverySweep(opt Options) ([]LoadPoint, error) {
	var out []LoadPoint
	for _, n := range opt.networkSizes() {
		for _, load := range loads {
			cfg := hotpotato.DefaultConfig(n)
			cfg.InjectorPercent = load
			cfg.Steps = opt.steps(deliverySteps(n))
			cfg.Seed = opt.seed()
			cfg.NumPEs = opt.PEs
			start := time.Now()
			totals, _, err := runHotpotato(core.KindOptimistic, cfg)
			if err != nil {
				return nil, fmt.Errorf("N=%d load=%.0f%%: %w", n, load, err)
			}
			p := LoadPoint{
				N:           n,
				LoadPct:     load,
				AvgDelivery: totals.AvgDelivery,
				AvgDistance: totals.AvgDistance,
				AvgWait:     totals.AvgWait,
				MaxWait:     totals.MaxWait,
				Delivered:   totals.Delivered,
				Injected:    totals.Injected,
				Wall:        time.Since(start),
			}
			out = append(out, p)
			opt.progressf("fig3/4: N=%d load=%.0f%% delivery=%.2f wait=%.2f (%v)\n",
				n, load, p.AvgDelivery, p.AvgWait, p.Wall.Round(time.Millisecond))
		}
	}
	return out, nil
}

// deliverySteps keeps the measurement window proportional to the network
// so packets at every size see a steady-state mix.
func deliverySteps(n int) int {
	s := 4 * n
	if s < 60 {
		s = 60
	}
	return s
}

// Fig3Table renders the Figure 3 series: one row per N, one delivery-time
// column per injector load.
func Fig3Table(points []LoadPoint) stats.Table {
	return loadTable(points, "Figure 3: average packet delivery time (steps) vs network diameter",
		func(p LoadPoint) float64 { return p.AvgDelivery })
}

// Fig4Table renders the Figure 4 series: average wait to inject a packet.
func Fig4Table(points []LoadPoint) stats.Table {
	return loadTable(points, "Figure 4: average wait to inject a packet (steps) vs network diameter",
		func(p LoadPoint) float64 { return p.AvgWait })
}

func loadTable(points []LoadPoint, title string, value func(LoadPoint) float64) stats.Table {
	t := stats.Table{Title: title, Header: []string{"N"}}
	for _, l := range loads {
		t.Header = append(t.Header, fmt.Sprintf("%.0f%% injectors", l))
	}
	byN := map[int]map[float64]float64{}
	var order []int
	for _, p := range points {
		if byN[p.N] == nil {
			byN[p.N] = map[float64]float64{}
			order = append(order, p.N)
		}
		byN[p.N][p.LoadPct] = value(p)
	}
	for _, n := range order {
		row := []string{fmt.Sprintf("%d", n)}
		for _, l := range loads {
			row = append(row, stats.FormatNumber(byN[n][l]))
		}
		t.AddRow(row...)
	}
	return t
}

// LinearityReport quantifies the report's headline claim for a given load
// series: delivery time (or wait) grows approximately linearly in N.
func LinearityReport(points []LoadPoint, value func(LoadPoint) float64, load float64) (slope, r2 float64) {
	var xs, ys []float64
	for _, p := range points {
		if p.LoadPct == load {
			xs = append(xs, float64(p.N))
			ys = append(ys, value(p))
		}
	}
	slope, _, r2 = stats.LinearFit(xs, ys)
	return slope, r2
}
