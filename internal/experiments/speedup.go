package experiments

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/hotpotato"
	"repro/internal/stats"
)

// peSweep is the processor ladder of Figures 5 and 6; the report's quad
// PC gives {1, 2, 4}. The 1-processor row is the true sequential engine,
// exactly as the report's "sequential mode".
var peSweep = []int{1, 2, 4}

// SpeedupPoint is one (N, PEs) cell of the Figure 5/6 sweep.
type SpeedupPoint struct {
	N         int
	PEs       int
	EventRate float64 // committed events per second
	Committed int64
	Processed int64
	Wall      time.Duration
}

// SpeedupSweep measures event rate across network sizes and PE counts.
// PEs == 1 runs the sequential engine; PEs > 1 the Time Warp kernel.
func SpeedupSweep(opt Options) ([]SpeedupPoint, error) {
	var out []SpeedupPoint
	for _, n := range opt.networkSizes() {
		for _, pes := range peSweep {
			cfg := hotpotato.DefaultConfig(n)
			cfg.Steps = opt.steps(speedupSteps(n))
			cfg.Seed = opt.seed()
			cfg.NumPEs = pes
			kind := core.KindOptimistic
			if pes == 1 {
				kind = core.KindSequential
			}
			_, ks, err := runHotpotato(kind, cfg)
			if err != nil {
				return nil, fmt.Errorf("N=%d PEs=%d: %w", n, pes, err)
			}
			p := SpeedupPoint{N: n, PEs: pes, EventRate: ks.EventRate,
				Committed: ks.Committed, Processed: ks.Processed, Wall: ks.Wall}
			out = append(out, p)
			opt.progressf("fig5/6: N=%d PEs=%d rate=%.0f ev/s (%v)\n",
				n, pes, p.EventRate, p.Wall.Round(time.Millisecond))
		}
	}
	return out, nil
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

// Fig5Table renders event rate per (N, PEs) — the Figure 5 series.
func Fig5Table(points []SpeedupPoint) stats.Table {
	t := stats.Table{Title: "Figure 5: parallel speed-up — event rate (events/s) vs network diameter",
		Header: []string{"N", "LPs"}}
	for _, pes := range peSweep {
		t.Header = append(t.Header, fmt.Sprintf("%d PE", pes))
	}
	forEachN(points, func(n int, row []SpeedupPoint) {
		cells := []string{fmt.Sprintf("%d", n), fmt.Sprintf("%d", n*n)}
		for _, pes := range peSweep {
			cells = append(cells, stats.FormatNumber(findPE(row, pes).EventRate))
		}
		t.AddRow(cells...)
	})
	return t
}

// Fig6Table renders efficiency = rate(P) / (P * rate(1)) — the Figure 6
// series.
func Fig6Table(points []SpeedupPoint) stats.Table {
	t := stats.Table{Title: "Figure 6: efficiency (speed-up / #PE) vs network diameter",
		Header: []string{"N"}}
	for _, pes := range peSweep {
		t.Header = append(t.Header, fmt.Sprintf("%d PE", pes))
	}
	forEachN(points, func(n int, row []SpeedupPoint) {
		base := findPE(row, 1).EventRate
		cells := []string{fmt.Sprintf("%d", n)}
		for _, pes := range peSweep {
			eff := 0.0
			if base > 0 {
				eff = findPE(row, pes).EventRate / (float64(pes) * base)
			}
			cells = append(cells, fmt.Sprintf("%.3f", eff))
		}
		t.AddRow(cells...)
	})
	return t
}

// Efficiency returns the Figure 6 value for one (N, PEs) pair within a
// sweep result.
func Efficiency(points []SpeedupPoint, n, pes int) float64 {
	var base, rate float64
	for _, p := range points {
		if p.N == n && p.PEs == 1 {
			base = p.EventRate
		}
		if p.N == n && p.PEs == pes {
			rate = p.EventRate
		}
	}
	if base == 0 {
		return 0
	}
	return rate / (float64(pes) * base)
}

func forEachN(points []SpeedupPoint, fn func(n int, row []SpeedupPoint)) {
	var order []int
	byN := map[int][]SpeedupPoint{}
	for _, p := range points {
		if _, ok := byN[p.N]; !ok {
			order = append(order, p.N)
		}
		byN[p.N] = append(byN[p.N], p)
	}
	for _, n := range order {
		fn(n, byN[n])
	}
}

func findPE(row []SpeedupPoint, pes int) SpeedupPoint {
	for _, p := range row {
		if p.PEs == pes {
			return p
		}
	}
	return SpeedupPoint{}
}
