package experiments

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/hotpotato"
	"repro/internal/stats"
	"repro/internal/traffic"
)

// PatternPoint is one traffic-pattern measurement.
type PatternPoint struct {
	Pattern        string
	AvgDelivery    float64
	MaxDelivery    float64
	AvgDistance    float64
	Stretch        float64
	DeflectionRate float64
	AvgWait        float64
	Delivered      int64
	Wall           time.Duration
}

// PatternSweep evaluates the paper's algorithm under the standard
// synthetic traffic suite on a saturated torus. Uniform random traffic is
// the report's workload; the permutation and hotspot patterns probe the
// deflection behaviour the optical-switching use case cares about.
func PatternSweep(opt Options) ([]PatternPoint, error) {
	n := 16
	if opt.Full {
		n = 32
	}
	var out []PatternPoint
	for _, name := range traffic.Names() {
		pattern, err := traffic.ByName(name)
		if err != nil {
			return nil, err
		}
		cfg := hotpotato.DefaultConfig(n)
		cfg.Traffic = pattern
		cfg.Steps = opt.steps(8 * n)
		cfg.Seed = opt.seed()
		cfg.NumPEs = opt.PEs
		start := time.Now()
		totals, _, err := runHotpotato(core.KindOptimistic, cfg)
		if err != nil {
			return nil, fmt.Errorf("pattern %s: %w", name, err)
		}
		out = append(out, PatternPoint{
			Pattern:        name,
			AvgDelivery:    totals.AvgDelivery,
			MaxDelivery:    totals.MaxDelivery,
			AvgDistance:    totals.AvgDistance,
			Stretch:        totals.Stretch,
			DeflectionRate: totals.DeflectionRate,
			AvgWait:        totals.AvgWait,
			Delivered:      totals.Delivered,
			Wall:           time.Since(start),
		})
		opt.progressf("patterns: %s delivery=%.2f stretch=%.3f defl=%.3f\n",
			name, totals.AvgDelivery, totals.Stretch, totals.DeflectionRate)
	}
	return out, nil
}

// PatternTable renders the traffic-pattern study.
func PatternTable(points []PatternPoint) stats.Table {
	t := stats.Table{
		Title: "Traffic patterns: the algorithm under the synthetic suite (saturated torus)",
		Header: []string{"pattern", "avg delivery", "max", "avg distance", "stretch",
			"deflection rate", "avg wait", "delivered"},
	}
	for _, p := range points {
		t.AddRow(p.Pattern, stats.FormatNumber(p.AvgDelivery), fmt.Sprintf("%.0f", p.MaxDelivery),
			stats.FormatNumber(p.AvgDistance), fmt.Sprintf("%.3f", p.Stretch),
			fmt.Sprintf("%.4f", p.DeflectionRate), stats.FormatNumber(p.AvgWait),
			fmt.Sprintf("%d", p.Delivered))
	}
	return t
}
