package experiments

import (
	"strings"
	"testing"
)

// TestDistanceProfile: the E[delivery | distance] curve must be strongly
// linear with slope ≥ 1 (a packet needs at least one step per hop).
func TestDistanceProfile(t *testing.T) {
	points, err := DistanceProfile(Options{Seed: 11, PEs: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(points) < 5 {
		t.Fatalf("profile has only %d bins", len(points))
	}
	var total int64
	for _, p := range points {
		total += p.Count
	}
	if total == 0 {
		t.Fatal("profile counted no packets")
	}
	slope, r2 := ProfileLinearity(points)
	if slope < 1 {
		t.Errorf("delivery grows %.3f steps per hop; must be at least 1", slope)
	}
	if r2 < 0.9 {
		t.Errorf("R² = %.3f; the theorem check expects a strongly linear profile", r2)
	}
	if tab := DistanceProfileTable(points); len(tab.Rows) != len(points) {
		t.Fatal("profile table row mismatch")
	}
}

// TestRateSweep: waits must grow monotonically-ish with rate, and sources
// below capacity must see small backlogs relative to saturating sources.
func TestRateSweep(t *testing.T) {
	points, err := RateSweep(Options{Steps: 80, Seed: 12, PEs: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 5 {
		t.Fatalf("got %d rate points", len(points))
	}
	lightest, heaviest := points[0], points[len(points)-1]
	if lightest.AvgWait >= heaviest.AvgWait {
		t.Fatalf("wait at rate %.2f (%.2f) >= wait at rate %.2f (%.2f)",
			lightest.Rate, lightest.AvgWait, heaviest.Rate, heaviest.AvgWait)
	}
	if lightest.StillQueued >= heaviest.StillQueued {
		t.Fatalf("backlog at light load %d >= heavy load %d", lightest.StillQueued, heaviest.StillQueued)
	}
	for _, p := range points {
		if p.Generated == 0 || p.Injected == 0 {
			t.Fatalf("rate %.2f generated/injected nothing: %+v", p.Rate, p)
		}
		if p.Injected > p.Generated {
			t.Fatalf("rate %.2f injected more than generated", p.Rate)
		}
	}
	if tab := RateTable(points); len(tab.Rows) != 5 {
		t.Fatal("rate table malformed")
	}
}

// TestTopologySweep: the torus must beat the mesh at equal N on both
// distance and delivery — the report's §1.1 claim.
func TestTopologySweep(t *testing.T) {
	points, err := TopologySweep(Options{Steps: 40, Seed: 17, PEs: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 4 {
		t.Fatalf("got %d topology points", len(points))
	}
	get := func(topo string, n int) TopologyPoint {
		for _, p := range points {
			if p.Topology == topo && p.N == n {
				return p
			}
		}
		t.Fatalf("missing %s N=%d", topo, n)
		return TopologyPoint{}
	}
	for _, n := range []int{8, 16} {
		torus, mesh := get("torus", n), get("mesh", n)
		if torus.AvgDistance >= mesh.AvgDistance {
			t.Errorf("N=%d: torus distance %.2f >= mesh %.2f", n, torus.AvgDistance, mesh.AvgDistance)
		}
		if torus.AvgDelivery >= mesh.AvgDelivery {
			t.Errorf("N=%d: torus delivery %.2f >= mesh %.2f", n, torus.AvgDelivery, mesh.AvgDelivery)
		}
	}
	if tab := TopologyTable(points); len(tab.Rows) != 4 {
		t.Fatal("topology table malformed")
	}
}

// TestMemorySweep: the footprint study must fill its grid, and each
// throttled cell's footprint must stay inside what its MaxOptimism window
// admits — a bound that holds on any schedule, unlike a comparison with the
// unthrottled run, whose footprint varies from run to run.
//
// The bound, for window M on the 16x16 torus:
//   - a PE executes only below GVT'+M, where GVT' is the newest estimate it
//     has read, and every router always has its next injection pending at
//     most one step past its last executed one, so one round moves GVT by
//     at most M+1. A live event therefore lies within 2M+1 steps of the
//     estimate its PE last fossil-collected against: at most 2M+2 whole
//     steps;
//   - in a committed history a router holds at most 9 events per step: one
//     injection, at most 4 arrivals (each in-link carries one packet per
//     step) and a routing decision for each of them;
//   - a live event that will not commit is rolled back later, so the
//     speculative surplus is at most the run's rolled-back count.
func TestMemorySweep(t *testing.T) {
	points, err := MemorySweep(Options{Steps: 20, Seed: 16, PEs: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 6 {
		t.Fatalf("got %d memory points", len(points))
	}
	const routers, perStep = 16 * 16, 9
	throttled := 0
	for _, p := range points {
		if p.PeakLive <= 0 {
			t.Fatalf("empty cell %+v", p)
		}
		if p.MaxOptimism == 0 {
			continue
		}
		throttled++
		bound := routers*perStep*(2*int(p.MaxOptimism)+2) + int(p.RolledBack)
		if p.PeakLive > bound {
			t.Errorf("max optimism %g: peak %d live events exceeds the window's bound %d (%d rolled back)",
				p.MaxOptimism, p.PeakLive, bound, p.RolledBack)
		}
	}
	if throttled != 2 {
		t.Fatalf("got %d throttled cells, want 2", throttled)
	}
	if tab := MemoryTable(points); len(tab.Rows) != 6 {
		t.Fatal("memory table malformed")
	}
}

// TestWarmup: the time series must rise from the initial transient to a
// steady plateau.
func TestWarmup(t *testing.T) {
	points, err := Warmup(Options{Seed: 18, PEs: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(points) < 8 {
		t.Fatalf("only %d warm-up bins", len(points))
	}
	first, last := points[0], points[len(points)-1]
	if first.AvgDelivery >= last.AvgDelivery {
		t.Fatalf("no transient: %.2f >= %.2f", first.AvgDelivery, last.AvgDelivery)
	}
	if tab := WarmupTable(points); len(tab.Rows) != len(points) {
		t.Fatal("warmup table malformed")
	}
	var buf strings.Builder
	c := WarmupChart(points)
	if err := c.Render(&buf); err != nil {
		t.Fatal(err)
	}
}

// TestTuningSweep: the ablation grid must fill and commit identical work
// in every cell (tuning knobs must not change results, only performance).
func TestTuningSweep(t *testing.T) {
	points, err := TuningSweep(Options{Steps: 20, Seed: 13, PEs: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 10 {
		t.Fatalf("got %d tuning points", len(points))
	}
	for _, p := range points {
		if p.EventRate <= 0 || p.GVTRounds <= 0 {
			t.Fatalf("empty cell %+v", p)
		}
	}
	// Only results are compared across cells. Counters of how the kernel
	// got there (GVT rounds, rollbacks) depend on how the PE goroutines were
	// scheduled: under the async token even "a longer GVT interval means no
	// more rounds" fails about one run in three on two cores.
	for _, p := range points[1:] {
		if p.Committed != points[0].Committed || p.Totals != points[0].Totals {
			t.Errorf("batch %d interval %d maxopt %g: committed %d, totals %+v; first cell committed %d, totals %+v",
				p.BatchSize, p.GVTInterval, p.MaxOptimism, p.Committed, p.Totals, points[0].Committed, points[0].Totals)
		}
	}
	if tab := TuningTable(points); len(tab.Rows) != 10 {
		t.Fatal("tuning table malformed")
	}
}
