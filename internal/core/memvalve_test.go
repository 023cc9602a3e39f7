package core

// Tests for the fossil-collection pressure valve (SetMemoryBound): a
// bounded run must commit exactly what the unbounded run commits, with a
// bounded concurrent live-event footprint, and the in-run invariant sweep
// (SetParanoid) must actually fire.

import (
	"sync/atomic"
	"testing"
)

// chainState counts processed events; chainModel forwards each event one
// tick ahead to a fixed next LP, so a closed population of jobs circulates
// forever and live events pile up whenever fossil collection lags.
type chainState struct {
	Processed int64
}

type chainModel struct {
	numLPs int
}

func (m chainModel) Forward(lp *LP, ev *Event) {
	st := lp.State.(*chainState)
	st.Processed++
	next := (int(lp.ID)*7 + 1) % m.numLPs
	lp.Send(LPID(next), 1, nil)
}

func (m chainModel) Reverse(lp *LP, ev *Event) {
	st := lp.State.(*chainState)
	st.Processed--
}

// buildChain constructs a chain-model simulator. The generous GVTInterval
// lets PEs race far ahead of commitment, which is exactly the pressure the
// valve exists to contain. The long horizon is what lets the unbounded
// control run build up a live-event pile on any core count: on one
// processor the optimism controller pins its window to the floor of
// EndTime/256 — under half a tick at a 120-tick horizon, which caps the
// pile at about one tick of events (~20), while 1024 ticks give a four-tick
// floor (~65 live at GOMAXPROCS=1, several hundred at 2). The valve then
// narrows to half the floor, two ticks.
func buildChain(t *testing.T, cfg Config) *Simulator {
	t.Helper()
	cfg.NumLPs = 32
	cfg.EndTime = 1024
	cfg.BatchSize = 4
	cfg.GVTInterval = 64
	cfg.Seed = 9
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.ForEachLP(func(lp *LP) {
		lp.Handler = chainModel{numLPs: s.NumLPs()}
		lp.State = &chainState{}
	})
	for i := 0; i < s.NumLPs(); i++ {
		s.Schedule(LPID(i), 0, nil)
	}
	return s
}

func chainTotal(s *Simulator) int64 {
	var total int64
	s.ForEachLP(func(lp *LP) { total += lp.State.(*chainState).Processed })
	return total
}

// TestMemoryValveBoundsLiveEvents: with the valve set well below the
// unbounded run's live peak, the run must still complete, commit the same
// event population, engage the throttle, and keep the concurrent live
// count near the budget. The budget is fixed rather than a fraction of the
// control run's peak, because that peak swings with scheduling (~65 on one
// processor, several hundred on two) while the pile the bounded run is
// guaranteed to build — a four-tick window floor's worth of events — does
// not; a budget taken from a lucky control run can sit above it.
func TestMemoryValveBoundsLiveEvents(t *testing.T) {
	const budget = 16
	free := buildChain(t, Config{NumPEs: 2})
	free.SetParanoid(0)
	freeStats, err := free.Run()
	if err != nil {
		t.Fatal(err)
	}
	if freeStats.MemThrottles != 0 {
		t.Fatalf("unbounded run reported %d throttled passes", freeStats.MemThrottles)
	}
	if freeStats.LivePeak < 24 {
		t.Fatalf("unbounded live peak %d too small for the valve to matter; tune the model", freeStats.LivePeak)
	}

	bounded := buildChain(t, Config{NumPEs: 2})
	bounded.SetParanoid(0)
	bounded.SetMemoryBound(budget)
	boundedStats, err := bounded.Run()
	if err != nil {
		t.Fatal(err)
	}
	if boundedStats.MemThrottles == 0 {
		t.Fatalf("valve never engaged at budget %d (unbounded peak %d)", budget, freeStats.LivePeak)
	}
	if boundedStats.Committed != freeStats.Committed {
		t.Fatalf("bounded run committed %d events, unbounded %d", boundedStats.Committed, freeStats.Committed)
	}
	if got, want := chainTotal(bounded), chainTotal(free); got != want {
		t.Fatalf("bounded final state %d, unbounded %d", got, want)
	}
	// The valve is checked once per pass, so a pass may overshoot by up to
	// BatchSize, plus whatever already sat below the valve's horizon when
	// the clamp bit; each circulating job has at most one pending event,
	// so that is at most NumLPs events. Anything past that slack means the
	// clamp is not holding.
	slack := int64(4 /* BatchSize */ + 32 /* one event per job */)
	if boundedStats.LivePeak > int64(budget)+slack {
		t.Fatalf("bounded live peak %d exceeds budget %d + slack %d", boundedStats.LivePeak, budget, slack)
	}
	if boundedStats.LivePeak >= freeStats.LivePeak {
		t.Fatalf("bounded live peak %d not below unbounded peak %d", boundedStats.LivePeak, freeStats.LivePeak)
	}
}

// TestInvariantSweepRuns: the in-run sweep must fire between GVT rounds
// and imply paranoid mode.
func TestInvariantSweepRuns(t *testing.T) {
	s := buildChain(t, Config{NumPEs: 2})
	s.SetParanoid(2)
	if !s.paranoid {
		t.Fatal("SetParanoid did not imply paranoid mode")
	}
	stats, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if stats.InvariantSweeps == 0 {
		t.Fatal("no in-run invariant sweeps ran")
	}
}

// TestInvariantSweepCatchesCorruption: an in-run sweep must surface
// planted corruption as a run error even when no GVT round would see it.
func TestInvariantSweepCatchesCorruption(t *testing.T) {
	s := buildChain(t, Config{NumPEs: 1})
	s.SetParanoid(1)
	// Corrupt the gauge from the first Forward: the next sweep must fail
	// the liveEvents identity.
	var armed atomic.Bool
	s.ForEachLP(func(lp *LP) {
		inner := lp.Handler
		lp.Handler = funcHandler{
			forward: func(lp *LP, ev *Event) {
				inner.Forward(lp, ev)
				if armed.CompareAndSwap(false, true) {
					s.peOf(lp.ID).liveEvents += 100
				}
			},
			reverse: inner.Reverse,
		}
	})
	if _, err := s.Run(); err == nil {
		t.Fatal("corrupted live gauge not caught by in-run sweep")
	}
}

// TestSettersArmValveAndParanoia: the post-construction setters must arm
// every PE's controller budget and the in-run sweep, disarm on a
// non-positive budget, and reject calls after Run (SetFaults included).
func TestSettersArmValveAndParanoia(t *testing.T) {
	s := buildChain(t, Config{NumPEs: 2})
	s.SetMemoryBound(-1)
	for _, pe := range s.pes {
		if pe.opt.budget != 0 {
			t.Fatalf("SetMemoryBound(-1): PE %d budget %d, want disarmed", pe.id, pe.opt.budget)
		}
	}
	s.SetMemoryBound(16)
	for _, pe := range s.pes {
		if pe.opt.budget != 16 {
			t.Fatalf("SetMemoryBound(16): PE %d budget %d", pe.id, pe.opt.budget)
		}
	}
	s.SetParanoid(4)
	if !s.paranoid || s.sweepEvery != 4 {
		t.Fatalf("SetParanoid: paranoid=%v sweepEvery=%d", s.paranoid, s.sweepEvery)
	}
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	mustPanic(t, "SetMemoryBound after Run", func() { s.SetMemoryBound(1) })
	mustPanic(t, "SetParanoid after Run", func() { s.SetParanoid(1) })
	mustPanic(t, "SetFaults after Run", func() { _ = s.SetFaults(&Faults{}) })
}
