package core

// Tests for the fossil-collection pressure valve (Config.MaxLiveEvents):
// a bounded run must commit exactly what the unbounded run commits, with a
// bounded concurrent live-event footprint, and the in-run invariant sweep
// (Config.InvariantSweep) must actually fire.

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
// control run build up a live-event pile on any core count: every multi-PE
// run arms the adaptive optimism window, and on one processor that window
// is pinned to its floor of EndTime/256 — under half a tick at a 120-tick
// horizon, which caps the pile at about one tick of events (~20), while
// 1024 ticks give a four-tick floor (~65 live at GOMAXPROCS=1, several
// hundred at 2).
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
	free := buildChain(t, Config{NumPEs: 2, CheckInvariants: true})
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

	bounded := buildChain(t, Config{
		NumPEs:          2,
		CheckInvariants: true,
		MaxLiveEvents:   budget,
		PressureWindow:  1.5,
	})
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
	// BatchSize, plus whatever already sat below GVT+window when the clamp
	// bit; with a 1.5-tick window at most one tick's events (<= NumLPs) are
	// below it. Anything past that slack means the clamp is not holding.
	slack := int64(4 /* BatchSize */ + 32 /* one tick of LPs */)
	if boundedStats.LivePeak > int64(budget)+slack {
		t.Fatalf("bounded live peak %d exceeds budget %d + slack %d", boundedStats.LivePeak, budget, slack)
	}
	if boundedStats.LivePeak >= freeStats.LivePeak {
		t.Fatalf("bounded live peak %d not below unbounded peak %d", boundedStats.LivePeak, freeStats.LivePeak)
	}
}

// TestInvariantSweepRuns: InvariantSweep must fire between GVT rounds and
// imply CheckInvariants.
func TestInvariantSweepRuns(t *testing.T) {
	s := buildChain(t, Config{NumPEs: 2, InvariantSweep: 2})
	if !s.cfg.CheckInvariants {
		t.Fatal("InvariantSweep did not imply CheckInvariants")
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
	s := buildChain(t, Config{NumPEs: 1, InvariantSweep: 1})
	// Corrupt the gauge from the first Forward: the next sweep must fail
	// the liveEvents identity.
	var armed atomic.Bool
	s.ForEachLP(func(lp *LP) {
		inner := lp.Handler
		lp.Handler = funcHandler{
			forward: func(lp *LP, ev *Event) {
				inner.Forward(lp, ev)
				if armed.CompareAndSwap(false, true) {
					lp.kp.pe.liveEvents += 100
				}
			},
			reverse: inner.Reverse,
		}
	})
	if _, err := s.Run(); err == nil {
		t.Fatal("corrupted live gauge not caught by in-run sweep")
	}
}

// TestSettersArmValveAndParanoia: the post-construction setters must be
// equivalent to the Config fields, and reject calls after Run.
func TestSettersArmValveAndParanoia(t *testing.T) {
	s := buildChain(t, Config{NumPEs: 2})
	s.SetMemoryBound(16, 0)
	if s.cfg.MaxLiveEvents != 16 || s.cfg.PressureWindow <= 0 {
		t.Fatalf("SetMemoryBound: MaxLiveEvents=%d PressureWindow=%v", s.cfg.MaxLiveEvents, s.cfg.PressureWindow)
	}
	s.SetParanoid(4)
	if !s.cfg.CheckInvariants || s.cfg.InvariantSweep != 4 {
		t.Fatalf("SetParanoid: CheckInvariants=%v InvariantSweep=%d", s.cfg.CheckInvariants, s.cfg.InvariantSweep)
	}
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	mustPanic(t, "SetMemoryBound after Run", func() { s.SetMemoryBound(1, 0) })
	mustPanic(t, "SetParanoid after Run", func() { s.SetParanoid(1) })
}
