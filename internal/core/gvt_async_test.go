package core

// Tests for the kernel's asynchronous token GVT and the adaptive optimism
// controller that rides on it: token rounds must commit
// exactly the sequential history under adversarial fault plans, the
// controller's TCP-shaped window must narrow under rollback storms and earn
// its width back afterwards, and the speculation quota must bound the live
// uncommitted footprint where no time-based window can.

import (
	"fmt"
	"testing"
)

// TestAsyncGVTMatchesSequential drives the stress model through PE/KP/batch
// shapes chosen to exercise the token machinery: single-PE self-handoff,
// uneven mappings, and tiny GVT intervals that keep the token hot. It is
// part of the CI -race stress step.
func TestAsyncGVTMatchesSequential(t *testing.T) {
	base := Config{NumLPs: 64, EndTime: 50, Seed: 11}
	want, seqStats := runStressSequential(t, base, 20)

	configs := []Config{
		{NumLPs: 64, EndTime: 50, Seed: 11, NumPEs: 1, NumKPs: 4},
		{NumLPs: 64, EndTime: 50, Seed: 11, NumPEs: 2, NumKPs: 8, BatchSize: 4, GVTInterval: 1},
		{NumLPs: 64, EndTime: 50, Seed: 11, NumPEs: 4, NumKPs: 16, BatchSize: 4, GVTInterval: 2},
		{NumLPs: 64, EndTime: 50, Seed: 11, NumPEs: 3, NumKPs: 7}, // uneven mapping
		{NumLPs: 64, EndTime: 50, Seed: 11, NumPEs: 4, NumKPs: 8}, // default batch and interval
	}
	for _, cfg := range configs {
		cfg := cfg
		name := fmt.Sprintf("pe%d_kp%d_b%d_g%d", cfg.NumPEs, cfg.NumKPs, cfg.BatchSize, cfg.GVTInterval)
		t.Run(name, func(t *testing.T) {
			got, parStats := runStressParallel(t, cfg, 20)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("LP %d state mismatch: async %+v vs sequential %+v", i, got[i], want[i])
				}
			}
			if parStats.Committed != seqStats.Committed {
				t.Fatalf("committed events: async %d vs sequential %d",
					parStats.Committed, seqStats.Committed)
			}
			if parStats.GVTRounds == 0 {
				t.Fatal("async run completed zero token rounds")
			}
		})
	}
}

// TestAsyncGVTUnderFaults runs the token GVT under every fault injector
// at once: forced rollbacks stress epoch coverage of anti-message mail,
// GVTDelay stresses the request-suppression path, mail bursts hold epochs
// open across token visits, shuffled delivery stresses the sender-side
// coverage argument, and throttled PEs drag the token ring at two speeds.
// Committed results must still be bit-identical to sequential.
func TestAsyncGVTUnderFaults(t *testing.T) {
	base := Config{NumLPs: 48, EndTime: 30, Seed: 5}
	want, seqStats := runStressSequential(t, base, 12)

	plans := []Faults{
		{Seed: 1, RollbackEvery: 3, RollbackDepth: 4},
		{Seed: 2, GVTDelay: 3, ShuffleMail: true},
		{Seed: 3, MailBurst: 2, ThrottlePEs: 1},
		{Seed: 4, RollbackEvery: 2, RollbackDepth: 6, GVTDelay: 2, ShuffleMail: true, MailBurst: 3, ThrottlePEs: 2},
		// The combination that exposed the forced-rollback/token-promise
		// interaction (use-after-free of a committed cancellation target):
		// spontaneous unwinds below a PE's folded contribution while held
		// bursts delay the covering mail. Fixed by clamping the injector
		// to the last contribution; see maybeForceRollback.
		{Seed: 11535655, RollbackEvery: 3, RollbackDepth: 4, ShuffleMail: true, MailBurst: 4},
	}
	for i, plan := range plans {
		plan := plan
		t.Run(fmt.Sprintf("plan%d", i), func(t *testing.T) {
			cfg := Config{NumLPs: 48, EndTime: 30, Seed: 5, NumPEs: 4, NumKPs: 8,
				BatchSize: 4, GVTInterval: 2,
				CheckInvariants: true, Faults: &plan}
			got, parStats := runStressParallel(t, cfg, 12)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("LP %d state mismatch under %+v: %+v vs %+v", i, plan, got[i], want[i])
				}
			}
			if parStats.Committed != seqStats.Committed {
				t.Fatalf("committed events under %+v: %d vs sequential %d",
					plan, parStats.Committed, seqStats.Committed)
			}
		})
	}
}

// TestAdaptiveWindowDynamics drives the controller directly through a
// rollback storm and out the other side: slow-start to the cap on clean
// intervals, halving with threshold tracking under the storm, and the
// post-storm climb that goes additive at the threshold the storm set.
func TestAdaptiveWindowDynamics(t *testing.T) {
	cfg := &Config{EndTime: 256}
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
	oc := newOptimismController(&Config{EndTime: 256}, 1)
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

// denseModel reproduces the shape that defeats every time-based optimism
// window: a population of jobs bootstrapped at microsecond spacing, each
// hopping one microsecond ahead around a ring until its TTL expires. The
// whole run spans a few hundred microseconds while any window floor derived
// from the end time is thousands of microseconds wide, so the horizon clamp
// can never bind and only the count-based speculation quota stands between
// the kernel and executing the entire population ahead of GVT.
type denseState struct{ Processed int64 }

type denseModel struct{ numLPs int }

func (m denseModel) Forward(lp *LP, ev *Event) {
	lp.State.(*denseState).Processed++
	if ttl := ev.Data.(int); ttl > 0 {
		lp.Send(LPID((int(lp.ID)+1)%m.numLPs), 1e-6, ttl-1)
	}
}

func (m denseModel) Reverse(lp *LP, ev *Event) {
	lp.State.(*denseState).Processed--
}

func runDense(t *testing.T, cfg Config, ttl int) *Stats {
	t.Helper()
	cfg.NumLPs = 256
	cfg.EndTime = 1
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.ForEachLP(func(lp *LP) {
		lp.Handler = denseModel{numLPs: s.NumLPs()}
		lp.State = &denseState{}
	})
	for i := 0; i < s.NumLPs(); i++ {
		s.Schedule(LPID(i), Time(float64(i+1)*1e-6), ttl)
	}
	stats, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	s.ForEachLP(func(lp *LP) { total += lp.State.(*denseState).Processed })
	if want := int64(s.NumLPs() * (ttl + 1)); total != want {
		t.Fatalf("processed %d events, want %d", total, want)
	}
	return stats
}

// TestSpeculationQuotaBoundsDenseBootstrap: on the dense model no time
// window can bind, so the quota alone decides how far execution runs ahead
// of commitment. With a generous interval (a quota of 8 192 events, most of
// the 10 496-event population) the PE executes most of the population
// before its first round; with a tight one it stops after one interval's
// worth of events per completed round no matter how tightly the timestamps
// pack. One PE makes the bound exact: every completed round advances GVT to
// the local frontier and commits everything executed, so the live peak is
// one quota plus at most a batch of overshoot. (Multi-PE lag additionally
// depends on how the OS schedules the starved PE, so the crisp contract is
// per round, not global — see the quota comment in pe.go.)
func TestSpeculationQuotaBoundsDenseBootstrap(t *testing.T) {
	const ttl = 40
	loose := runDense(t, Config{NumPEs: 1, NumKPs: 8, Seed: 1,
		BatchSize: 16, GVTInterval: 512}, ttl)

	tight := runDense(t, Config{NumPEs: 1, NumKPs: 8, Seed: 1,
		BatchSize: 16, GVTInterval: 8}, ttl)

	// Fossil collection commits strictly below GVT, and in this ring up to
	// ttl+1 jobs coincide on the frontier tick, so those stay live past a
	// round; add a batch of overshoot on top of the quota itself.
	quota := int64(16 * 8)
	if limit := quota + int64(ttl+1) + 16; tight.LivePeak > limit {
		t.Fatalf("tight-quota live peak %d exceeds quota-derived bound %d", tight.LivePeak, limit)
	}
	if tight.LivePeak*10 > loose.LivePeak {
		t.Fatalf("tight-quota live peak %d not well below loose-quota peak %d",
			tight.LivePeak, loose.LivePeak)
	}
	if loose.Committed != tight.Committed {
		t.Fatalf("committed events: loose quota %d vs tight quota %d", loose.Committed, tight.Committed)
	}
}
