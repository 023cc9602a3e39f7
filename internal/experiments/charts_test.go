package experiments

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/hotpotato"
)

// TestChartsRender: every figure chart must build from run records and
// render with its series legend.
func TestChartsRender(t *testing.T) {
	load := func(n int, pct, delivery, wait float64) Run {
		return Run{Cfg: hotpotato.Config{N: n, InjectorPercent: pct},
			Totals: hotpotato.Totals{AvgDelivery: delivery, AvgWait: wait}}
	}
	loadRuns := []Run{
		load(8, 0, 5, 0), load(8, 50, 6, 7), load(8, 75, 6.5, 12), load(8, 100, 7, 16),
		load(16, 0, 11, 0), load(16, 50, 12, 18), load(16, 75, 12.3, 23), load(16, 100, 12.5, 26),
	}
	kp := func(n, kps int, rolled int64, rate float64) Run {
		return Run{Cfg: hotpotato.Config{N: n, NumKPs: kps},
			Stats: core.Stats{Counters: core.Counters{RolledBackEvents: rolled}, EventRate: rate}}
	}
	kpRuns := []Run{kp(16, 4, 500, 1e6), kp(16, 16, 200, 1.2e6), kp(32, 4, 900, 9e5), kp(32, 16, 400, 1.1e6)}
	sp := func(n, pes int, rate float64) Run {
		return Run{Cfg: hotpotato.Config{N: n, NumPEs: pes}, Stats: core.Stats{EventRate: rate}}
	}
	spRuns := []Run{
		sp(8, 1, 1e6), sp(8, 2, 1.5e6), sp(8, 4, 2e6),
		sp(16, 1, 1e6), sp(16, 2, 1.6e6), sp(16, 4, 2.5e6),
	}
	profileRuns := []Run{{Profile: []hotpotato.DistPoint{
		{Distance: 1, AvgDelivery: 2, Count: 10},
		{Distance: 4, AvgDelivery: 6, Count: 20},
		{Distance: 8, AvgDelivery: 11, Count: 15},
	}}}

	cases := []struct {
		name   string
		render func([]Run) (Output, error)
		runs   []Run
		want   string
	}{
		{"fig3", fig3, loadRuns, "100%"},
		{"fig4", fig4, loadRuns, "wait"},
		{"fig5", fig5, spRuns, "4 PE"},
		{"fig7", fig7, kpRuns, "32x32"},
		{"fig8", fig8, kpRuns, "events/s"},
		{"distance", renderDistance, profileRuns, "ideal"},
	}
	for _, tc := range cases {
		var buf bytes.Buffer
		if err := mustRender(t, tc.render, tc.runs).Chart.Render(&buf); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if !strings.Contains(buf.String(), tc.want) {
			t.Errorf("%s chart missing %q:\n%s", tc.name, tc.want, buf.String())
		}
	}
}

// TestPatternSweepSmoke covers the traffic-pattern experiment end to end.
func TestPatternSweepSmoke(t *testing.T) {
	runs := mustRun(t, patterns, Options{Steps: 15, Seed: 15, PEs: 2})
	if len(runs) != 6 {
		t.Fatalf("got %d pattern runs", len(runs))
	}
	for _, r := range runs {
		if r.Totals.Delivered == 0 {
			t.Fatalf("pattern %s delivered nothing", r.Cfg.Traffic.Name())
		}
	}
	// Nearest-neighbour traffic must be the fastest of the suite.
	var neighbor, uniform float64
	for _, r := range runs {
		switch r.Cfg.Traffic.Name() {
		case "neighbor":
			neighbor = r.Totals.AvgDelivery
		case "uniform":
			uniform = r.Totals.AvgDelivery
		}
	}
	if neighbor >= uniform {
		t.Fatalf("neighbour delivery %.2f not below uniform %.2f", neighbor, uniform)
	}
	if tab := mustRender(t, renderPatterns, runs).Table; len(tab.Rows) != 6 {
		t.Fatal("pattern table malformed")
	}
}

// TestFullOptionLadders: the Full flag must widen every sweep dimension.
func TestFullOptionLadders(t *testing.T) {
	quick, full := Options{}, Options{Full: true}
	if len(full.networkSizes()) <= len(quick.networkSizes()) {
		t.Error("Full did not widen the N ladder")
	}
	if len(full.kpCounts()) <= len(quick.kpCounts()) {
		t.Error("Full did not widen the KP ladder")
	}
	if len(full.kpNetworkSizes()) <= len(quick.kpNetworkSizes()) {
		t.Error("Full did not widen the Figure 7/8 sizes")
	}
	if quick.seed() != 1 {
		t.Error("default seed must be 1")
	}
	if (Options{Seed: 9}).seed() != 9 {
		t.Error("explicit seed ignored")
	}
	if quick.pes() != 4 || (Options{PEs: 2}).pes() != 2 {
		t.Error("PE count must default to 4 and follow an explicit value")
	}
}
