package experiments

import (
	"strings"
	"testing"

	"repro/internal/hotpotato"
)

// TestDistanceProfile: the E[delivery | distance] curve must be strongly
// linear with slope ≥ 1 (a packet needs at least one step per hop).
func TestDistanceProfile(t *testing.T) {
	runs := mustRun(t, distance, Options{Seed: 11, PEs: 2})
	points := runs[0].Profile
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
	slope, r2 := profileFit(points)
	if slope < 1 {
		t.Errorf("delivery grows %.3f steps per hop; must be at least 1", slope)
	}
	if r2 < 0.9 {
		t.Errorf("R² = %.3f; the theorem check expects a strongly linear profile", r2)
	}
	if tab := mustRender(t, renderDistance, runs).Table; len(tab.Rows) != len(points) {
		t.Fatal("profile table row mismatch")
	}
}

// TestRateSweep: waits must grow monotonically-ish with rate, and sources
// below capacity must see small backlogs relative to saturating sources.
func TestRateSweep(t *testing.T) {
	runs := mustRun(t, rates, Options{Steps: 80, Seed: 12, PEs: 2})
	if len(runs) != 5 {
		t.Fatalf("got %d rate runs", len(runs))
	}
	lightest, heaviest := runs[0], runs[len(runs)-1]
	if lightest.Totals.AvgWait >= heaviest.Totals.AvgWait {
		t.Fatalf("wait at rate %.2f (%.2f) >= wait at rate %.2f (%.2f)",
			lightest.Cfg.InjectionProb, lightest.Totals.AvgWait, heaviest.Cfg.InjectionProb, heaviest.Totals.AvgWait)
	}
	if lightest.Totals.StillQueued >= heaviest.Totals.StillQueued {
		t.Fatalf("backlog at light load %d >= heavy load %d", lightest.Totals.StillQueued, heaviest.Totals.StillQueued)
	}
	for _, r := range runs {
		if r.Totals.Generated == 0 || r.Totals.Injected == 0 {
			t.Fatalf("rate %.2f generated/injected nothing: %+v", r.Cfg.InjectionProb, r.Totals)
		}
		if r.Totals.Injected > r.Totals.Generated {
			t.Fatalf("rate %.2f injected more than generated", r.Cfg.InjectionProb)
		}
	}
	if tab := mustRender(t, renderRates, runs).Table; len(tab.Rows) != 5 {
		t.Fatal("rate table malformed")
	}
}

// TestTopologySweep: the torus must beat the mesh at equal N on both
// distance and delivery — the report's §1.1 claim.
func TestTopologySweep(t *testing.T) {
	runs := mustRun(t, topology, Options{Steps: 40, Seed: 17, PEs: 2})
	if len(runs) != 4 {
		t.Fatalf("got %d topology runs", len(runs))
	}
	get := func(topo string, n int) hotpotato.Totals {
		for _, r := range runs {
			if r.Cfg.Topology == topo && r.Cfg.N == n {
				return r.Totals
			}
		}
		t.Fatalf("missing %s N=%d", topo, n)
		return hotpotato.Totals{}
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
	if tab := mustRender(t, renderTopology, runs).Table; len(tab.Rows) != 4 {
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
	runs := mustRun(t, memory, Options{Steps: 20, Seed: 16, PEs: 2})
	if len(runs) != 6 {
		t.Fatalf("got %d memory runs", len(runs))
	}
	const routers, perStep = 16 * 16, 9
	throttled := 0
	for _, r := range runs {
		peak, maxOpt, rolled := r.Stats.PeakLiveEvents, r.Cfg.MaxOptimism, r.Stats.RolledBackEvents
		if peak <= 0 {
			t.Fatalf("empty cell GVT interval %d: %+v", r.Cfg.GVTInterval, r.Stats)
		}
		if maxOpt == 0 {
			continue
		}
		throttled++
		bound := routers*perStep*(2*int(maxOpt)+2) + int(rolled)
		if peak > bound {
			t.Errorf("max optimism %g: peak %d live events exceeds the window's bound %d (%d rolled back)",
				float64(maxOpt), peak, bound, rolled)
		}
	}
	if throttled != 2 {
		t.Fatalf("got %d throttled cells, want 2", throttled)
	}
	if tab := mustRender(t, renderMemory, runs).Table; len(tab.Rows) != 6 {
		t.Fatal("memory table malformed")
	}
}

// TestWarmup: the time series must rise from the initial transient to a
// steady plateau.
func TestWarmup(t *testing.T) {
	runs := mustRun(t, warmup, Options{Seed: 18, PEs: 2})
	points := runs[0].Series
	if len(points) < 8 {
		t.Fatalf("only %d warm-up bins", len(points))
	}
	first, last := points[0], points[len(points)-1]
	if first.AvgDelivery >= last.AvgDelivery {
		t.Fatalf("no transient: %.2f >= %.2f", first.AvgDelivery, last.AvgDelivery)
	}
	out := mustRender(t, renderWarmup, runs)
	if len(out.Table.Rows) != len(points) {
		t.Fatal("warmup table malformed")
	}
	var buf strings.Builder
	if err := out.Chart.Render(&buf); err != nil {
		t.Fatal(err)
	}
}

// TestTuningSweep: the ablation grid must fill and commit identical work
// in every cell (tuning knobs must not change results, only performance).
func TestTuningSweep(t *testing.T) {
	runs := mustRun(t, tuning, Options{Steps: 20, Seed: 13, PEs: 2})
	if len(runs) != 10 {
		t.Fatalf("got %d tuning runs", len(runs))
	}
	for _, r := range runs {
		if r.Stats.EventRate <= 0 || r.Stats.GVTRounds <= 0 {
			t.Fatalf("empty cell batch %d interval %d: %+v", r.Cfg.BatchSize, r.Cfg.GVTInterval, r.Stats)
		}
	}
	// Only results are compared across cells. Counters of how the kernel
	// got there (GVT rounds, rollbacks) depend on how the PE goroutines were
	// scheduled: under the async token even "a longer GVT interval means no
	// more rounds" fails about one run in three on two cores.
	first := runs[0]
	for _, r := range runs[1:] {
		if r.Stats.Committed != first.Stats.Committed || r.Totals != first.Totals {
			t.Errorf("batch %d interval %d maxopt %g: committed %d, totals %+v; first cell committed %d, totals %+v",
				r.Cfg.BatchSize, r.Cfg.GVTInterval, float64(r.Cfg.MaxOptimism), r.Stats.Committed, r.Totals,
				first.Stats.Committed, first.Totals)
		}
	}
	if tab := mustRender(t, renderTuning, runs).Table; len(tab.Rows) != 10 {
		t.Fatal("tuning table malformed")
	}
}
