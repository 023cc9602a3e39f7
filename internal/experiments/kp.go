package experiments

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/hotpotato"
	"repro/internal/stats"
)

// KPPoint is one (N, KPs) cell of the Figure 7/8 sweep.
type KPPoint struct {
	N                  int
	KPs                int
	RolledBackEvents   int64
	PrimaryRollbacks   int64
	SecondaryRollbacks int64
	EventRate          float64
	Committed          int64
	Wall               time.Duration
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

// KPSweep measures rollback volume and event rate across KP counts, the
// report's §4.2.3 study. The PE count is fixed (default 4, the report's
// machine) so only rollback granularity varies.
func KPSweep(opt Options) ([]KPPoint, error) {
	pes := opt.PEs
	if pes <= 0 {
		pes = 4
	}
	var out []KPPoint
	for _, n := range opt.kpNetworkSizes() {
		for _, kps := range opt.kpCounts() {
			if kps < pes {
				continue
			}
			cfg := hotpotato.DefaultConfig(n)
			cfg.Steps = opt.steps(kpSteps(n))
			cfg.Seed = opt.seed()
			cfg.NumPEs = pes
			cfg.NumKPs = kps
			_, ks, err := runHotpotato(core.KindOptimistic, cfg)
			if err != nil {
				return nil, fmt.Errorf("N=%d KPs=%d: %w", n, kps, err)
			}
			p := KPPoint{
				N:                  n,
				KPs:                kps,
				RolledBackEvents:   ks.RolledBackEvents,
				PrimaryRollbacks:   ks.PrimaryRollbacks,
				SecondaryRollbacks: ks.SecondaryRollbacks,
				EventRate:          ks.EventRate,
				Committed:          ks.Committed,
				Wall:               ks.Wall,
			}
			out = append(out, p)
			opt.progressf("fig7/8: N=%d KPs=%d rolledback=%d rate=%.0f ev/s (%v)\n",
				n, kps, p.RolledBackEvents, p.EventRate, p.Wall.Round(time.Millisecond))
		}
	}
	return out, nil
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

// Fig7Table renders total events rolled back per (KPs, N) — the Figure
// 7a/b/c series (the report splits it across three scales; one table
// carries the same data).
func Fig7Table(points []KPPoint) stats.Table {
	return kpTable(points, "Figure 7: total events rolled back vs number of KPs",
		func(p KPPoint) string { return fmt.Sprintf("%d", p.RolledBackEvents) })
}

// Fig8Table renders event rate per (KPs, N) — the Figure 8 series.
func Fig8Table(points []KPPoint) stats.Table {
	return kpTable(points, "Figure 8: event rate (events/s) vs number of KPs",
		func(p KPPoint) string { return stats.FormatNumber(p.EventRate) })
}

func kpTable(points []KPPoint, title string, value func(KPPoint) string) stats.Table {
	var sizes []int
	bySize := map[int]bool{}
	var kps []int
	byKP := map[int]bool{}
	cell := map[[2]int]string{}
	for _, p := range points {
		if !bySize[p.N] {
			bySize[p.N] = true
			sizes = append(sizes, p.N)
		}
		if !byKP[p.KPs] {
			byKP[p.KPs] = true
			kps = append(kps, p.KPs)
		}
		cell[[2]int{p.KPs, p.N}] = value(p)
	}
	t := stats.Table{Title: title, Header: []string{"KPs"}}
	for _, n := range sizes {
		t.Header = append(t.Header, fmt.Sprintf("%dx%d", n, n))
	}
	for _, k := range kps {
		row := []string{fmt.Sprintf("%d", k)}
		for _, n := range sizes {
			v, ok := cell[[2]int{k, n}]
			if !ok {
				v = "-"
			}
			row = append(row, v)
		}
		t.AddRow(row...)
	}
	return t
}
