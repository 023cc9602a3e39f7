package core

import "testing"

// TestMaxOptimismPreservesResults: the throttle is a performance knob; it
// must not change committed results.
func TestMaxOptimismPreservesResults(t *testing.T) {
	base := Config{NumLPs: 64, EndTime: 50, Seed: 7}
	want, seqStats := runStressSequential(t, base, 20)

	for _, maxOpt := range []Time{0.5, 2, 10} {
		cfg := base
		cfg.NumPEs = 4
		cfg.NumKPs = 16
		cfg.BatchSize = 8
		cfg.GVTInterval = 4
		cfg.MaxOptimism = maxOpt
		got, parStats := runStressParallel(t, cfg, 20)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("maxOpt=%v LP %d: %+v != %+v", maxOpt, i, got[i], want[i])
			}
		}
		if parStats.Committed != seqStats.Committed {
			t.Fatalf("maxOpt=%v: committed %d != %d", maxOpt, parStats.Committed, seqStats.Committed)
		}
	}
}

// TestMaxOptimismBoundsSpeculation: with an aggressive over-optimistic
// configuration, enabling the throttle must cut the rolled-back volume
// substantially.
func TestMaxOptimismBoundsSpeculation(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-sensitive comparison")
	}
	run := func(maxOpt Time) *Stats {
		cfg := Config{
			NumLPs: 128, EndTime: 120, Seed: 11, NumPEs: 8, NumKPs: 16,
			BatchSize: 256, GVTInterval: 64, MaxOptimism: maxOpt,
		}
		_, stats := runStressParallel(t, cfg, 60)
		return stats
	}
	wild := run(0)
	tame := run(2)
	// The wild configuration on an oversubscribed host typically rolls
	// back many times its committed volume; the throttle must keep it
	// within a small multiple. Guard loosely to stay robust across hosts,
	// but catch order-of-magnitude regressions.
	if wild.RolledBackEvents > 0 && tame.RolledBackEvents > wild.RolledBackEvents {
		t.Fatalf("throttle increased rollbacks: %d -> %d", wild.RolledBackEvents, tame.RolledBackEvents)
	}
	if tame.RolledBackEvents > 4*tame.Committed {
		t.Fatalf("throttled run still rolled back %d events for %d committed",
			tame.RolledBackEvents, tame.Committed)
	}
}

// TestControllerSinglePEFixedAtCap: a single-PE controller holds its window
// at the cap whatever it observes, so its horizon is exactly the static
// min(EndTime, GVT+MaxOptimism) bound, and the adaptive window never counts
// as the clamp.
func TestControllerSinglePEFixedAtCap(t *testing.T) {
	for _, maxOpt := range []Time{0, 3} {
		for _, cpus := range []int{1, 4} {
			cfg := Config{NumPEs: 1, EndTime: 100, MaxOptimism: maxOpt}
			oc := newOptimismController(&cfg, cpus)
			want := maxOpt
			if want == 0 {
				want = cfg.EndTime
			}
			var processed, rolledBack int64
			for i := 0; i < 20; i++ {
				processed += optSampleMin
				if i%3 == 0 {
					rolledBack += optSampleMin / 2 // a storm: narrow if anything could
				}
				oc.observe(processed, rolledBack)
				if oc.min != want || oc.max != want || oc.window != want {
					t.Fatalf("maxOpt=%v cpus=%d: min/max/window %v/%v/%v, want all %v",
						maxOpt, cpus, oc.min, oc.max, oc.window, want)
				}
				for _, gvt := range []Time{0, 50, 98.5} {
					static := cfg.EndTime
					if maxOpt > 0 && gvt+maxOpt < static {
						static = gvt + maxOpt
					}
					h, clamped, throttled := oc.horizon(gvt, 0)
					if h != static || clamped || throttled {
						t.Fatalf("maxOpt=%v cpus=%d gvt=%v: horizon %v clamped=%v throttled=%v, want %v by the cap",
							maxOpt, cpus, gvt, h, clamped, throttled, static)
					}
				}
			}
		}
	}
}

// TestControllerValveBelowPinnedFloor: on one processor the adaptive window
// is pinned at its floor, and an over-budget PE's horizon must still be
// strictly narrower than that floor — and strictly past GVT, so the event
// at GVT stays executable.
func TestControllerValveBelowPinnedFloor(t *testing.T) {
	cfg := Config{NumPEs: 2, EndTime: 1024}
	oc := newOptimismController(&cfg, 1)
	oc.budget = 16
	var processed int64
	for i := 0; i < 20; i++ {
		processed += optSampleMin
		oc.observe(processed, 0) // perfect efficiency: widen if anything could
	}
	if oc.window != cfg.EndTime/optFloorDiv || oc.max != oc.min {
		t.Fatalf("window %v (min %v, max %v) not pinned at the floor %v",
			oc.window, oc.min, oc.max, cfg.EndTime/optFloorDiv)
	}
	const gvt = 10
	h, clamped, throttled := oc.horizon(gvt, 15)
	if h != gvt+oc.window || !clamped || throttled {
		t.Fatalf("under budget: horizon %v clamped=%v throttled=%v, want GVT+floor %v",
			h, clamped, throttled, gvt+oc.window)
	}
	h, _, throttled = oc.horizon(gvt, 16)
	if !throttled || h >= gvt+oc.min || h <= gvt {
		t.Fatalf("at budget: horizon %v throttled=%v, want inside (GVT, GVT+floor) = (%v, %v)",
			h, throttled, Time(gvt), gvt+oc.min)
	}
}

// TestControllerWindowNeverExceedsMaxOptimism: however long a PE runs
// without rollbacks, the adaptive window — and so its horizon — stays
// within MaxOptimism of GVT, and it does reach that cap.
func TestControllerWindowNeverExceedsMaxOptimism(t *testing.T) {
	const maxOpt = 5
	cfg := Config{NumPEs: 4, EndTime: 1000, MaxOptimism: maxOpt}
	oc := newOptimismController(&cfg, 4)
	var processed, rolledBack int64
	for i := 0; i < 2000; i++ {
		processed += optSampleMin
		if i < 1000 && i%97 == 0 {
			rolledBack += optSampleMin / 2 // storms, then a long clean run
		}
		oc.observe(processed, rolledBack)
		if oc.window > maxOpt || oc.window < oc.min {
			t.Fatalf("sample %d: window %v outside [%v, %v]", i, oc.window, oc.min, Time(maxOpt))
		}
		if h, _, _ := oc.horizon(100, 0); h > 100+maxOpt {
			t.Fatalf("sample %d: horizon %v past GVT+MaxOptimism", i, h)
		}
	}
	if oc.window != maxOpt {
		t.Fatalf("window %v never reached the cap %v", oc.window, Time(maxOpt))
	}
}

// TestAdaptiveWindowDynamics drives the controller directly through a
// rollback storm and out the other side: slow-start to the cap on clean
// intervals, halving with threshold tracking under the storm, and the
// post-storm climb that goes additive at the threshold the storm set.
func TestAdaptiveWindowDynamics(t *testing.T) {
	cfg := &Config{NumPEs: 2, EndTime: 256}
	oc := newOptimismController(cfg, 8)
	if oc.min != 1 || oc.max != 256 {
		t.Fatalf("bounds: min=%v max=%v, want 1, 256", oc.min, oc.max)
	}
	if oc.window != oc.min {
		t.Fatalf("window starts at %v, want the floor %v", oc.window, oc.min)
	}

	// Sub-threshold samples fold into the next interval without moving the
	// window.
	proc, rb := int64(optSampleMin-1), int64(0)
	oc.observe(proc, rb)
	if oc.window != oc.min || oc.procMark != 0 {
		t.Fatalf("short interval moved the window (%v) or the mark (%d)", oc.window, oc.procMark)
	}

	// Clean intervals: pure slow start doubles the floor to the cap in
	// log2(optFloorDiv) observations.
	steps := 0
	for oc.window < oc.max {
		proc += optSampleMin
		oc.observe(proc, rb)
		if steps++; steps > 64 {
			t.Fatalf("window stuck at %v after %d clean intervals", oc.window, steps)
		}
	}
	if steps != 8 {
		t.Fatalf("slow start took %d doublings from %v to %v, want 8", steps, oc.min, oc.max)
	}

	// Storm: every interval rollback-dominated (efficiency 0.5) halves the
	// window down to the floor, dragging the threshold with it.
	for i := 0; oc.window > oc.min; i++ {
		proc += 2 * optSampleMin
		rb += optSampleMin
		oc.observe(proc, rb)
		if i > 64 {
			t.Fatalf("storm never drove the window to the floor (at %v)", oc.window)
		}
	}
	if oc.thresh != oc.min {
		t.Fatalf("threshold %v did not follow the storm down to the floor %v", oc.thresh, oc.min)
	}

	// Recovery: the threshold the storm set makes the climb additive from
	// the first step — one floor unit per clean interval, no overshooting
	// jump back to the width that just stormed.
	proc += optSampleMin
	oc.observe(proc, rb)
	if oc.window != 2*oc.min {
		t.Fatalf("first post-storm step took window to %v, want additive %v", oc.window, 2*oc.min)
	}
	for i := 0; oc.window < oc.max; i++ {
		proc += optSampleMin
		oc.observe(proc, rb)
		if i > 2*optFloorDiv {
			t.Fatalf("additive climb never reached the cap (at %v)", oc.window)
		}
	}

	// Dead band: an interval between the thresholds leaves the window alone.
	proc += optSampleMin
	rb += optSampleMin * 18 / 100 // efficiency 0.82 ∈ [narrowAt, widenAt)
	before := oc.window
	oc.observe(proc, rb)
	if oc.window != before {
		t.Fatalf("dead-band interval moved the window %v -> %v", before, oc.window)
	}
}

// TestAdaptiveWindowPinnedOnOneCPU: with one processor the cap collapses to
// the floor and no observation stream may widen the window — speculation on
// a timesliced core only displaces critical-path work.
func TestAdaptiveWindowPinnedOnOneCPU(t *testing.T) {
	oc := newOptimismController(&Config{NumPEs: 2, EndTime: 256}, 1)
	if oc.max != oc.min {
		t.Fatalf("cap %v not collapsed to floor %v", oc.max, oc.min)
	}
	proc := int64(0)
	for i := 0; i < 32; i++ {
		proc += optSampleMin
		oc.observe(proc, 0)
		if oc.window != oc.min {
			t.Fatalf("perfect efficiency widened a pinned window to %v", oc.window)
		}
	}
}
