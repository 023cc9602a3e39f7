package core

import (
	"reflect"
	"sync"
	"testing"
)

// countingSink is a RecordSink that tallies what the kernel reports. The
// callbacks run on kernel goroutines, so it locks; a real recorder avoids
// the lock via per-PE ownership (see internal/replay), but a test sink
// favours simplicity.
type countingSink struct {
	mu        sync.Mutex
	mailCalls int
	mailMsgs  int
	rollbacks int
	events    int64
	forced    int
	secondary int
	rounds    []Time
	violation string
}

func (s *countingSink) MailBatch(dst, src, n int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.mailCalls++
	s.mailMsgs += n
	if n <= 0 {
		s.violation = "MailBatch with n <= 0"
	}
	if dst == src {
		s.violation = "MailBatch from a PE to itself"
	}
}

func (s *countingSink) Rollback(pe, kp, events int, secondary, forced bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.rollbacks++
	s.events += int64(events)
	if forced {
		s.forced++
	}
	if secondary {
		s.secondary++
	}
	if events < 0 {
		s.violation = "Rollback with negative event count"
	}
}

func (s *countingSink) GVTRound(round int64, gvt Time) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.rounds) > 0 && gvt < s.rounds[len(s.rounds)-1] {
		s.violation = "GVT estimates went backwards"
	}
	s.rounds = append(s.rounds, gvt)
}

// TestRecordSinkObservesRun: with a sink attached, an adversarial multi-PE
// run must report cross-PE mail, rollbacks (forced ones flagged as such)
// and a nondecreasing GVT round sequence — and the sink must not change the
// committed trajectory.
func TestRecordSinkObservesRun(t *testing.T) {
	base := Config{NumLPs: 64, EndTime: 40, Seed: 11}
	want, _ := runStressSequential(t, base, 16)

	cfg := base
	cfg.NumPEs = 4
	cfg.NumKPs = 16
	cfg.BatchSize = 8
	cfg.GVTInterval = 2
	sink := &countingSink{}

	got, stats := runStressParallel(t, cfg, 16, paranoid,
		armFaults(t, &Faults{Seed: 5, RollbackEvery: 2, RollbackDepth: 4, ShuffleMail: true}),
		func(s *Simulator) { s.SetRecord(sink) })
	if !reflect.DeepEqual(got, want) {
		t.Fatal("attaching a record sink changed the committed trajectory")
	}
	if sink.violation != "" {
		t.Fatalf("sink contract violated: %s", sink.violation)
	}
	if sink.mailCalls == 0 || sink.mailMsgs == 0 {
		t.Error("4-PE all-to-all run reported no cross-PE mail")
	}
	if len(sink.rounds) == 0 {
		t.Error("run reported no GVT rounds")
	}
	if sink.forced == 0 {
		t.Errorf("forced-rollback fault plan armed but sink saw %d forced rollbacks", sink.forced)
	}
	if int64(sink.rollbacks) < stats.ForcedRollbacks {
		t.Errorf("sink saw %d rollbacks, stats report %d forced alone", sink.rollbacks, stats.ForcedRollbacks)
	}
}

// TestSetRecordAfterRunPanics pins the misuse guard.
func TestSetRecordAfterRunPanics(t *testing.T) {
	cfg := Config{NumLPs: 4, NumPEs: 1, NumKPs: 1, EndTime: 1, BatchSize: 4, GVTInterval: 4}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.ForEachLP(func(lp *LP) {
		lp.Handler = stressModel{numLPs: 4}
		lp.State = &stressState{}
	})
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("SetRecord after Run did not panic")
		}
	}()
	s.SetRecord(&countingSink{})
}

// TestBootstrapHarvestRoundTrip is the property replay depends on: visiting
// a simulation's bootstrap events with ForEachBootstrap, dropping them, and
// re-scheduling the harvested list must commit the identical trajectory —
// on both engines. (DropBootstrap resets the bootstrap sequence counter, so
// re-injected events get the same tie-breaking identity.)
func TestBootstrapHarvestRoundTrip(t *testing.T) {
	type boot struct {
		dst LPID
		t   Time
		ttl int
	}
	schedule := func(sched func(LPID, Time, any)) {
		for i := 0; i < 16; i++ {
			sched(LPID(i), Time(0.001*float64(i+1)), &stressMsg{TTL: 12})
		}
	}

	t.Run("parallel", func(t *testing.T) {
		cfg := Config{NumLPs: 16, NumPEs: 2, NumKPs: 4, EndTime: 30, Seed: 3,
			BatchSize: 8, GVTInterval: 2}
		want, _ := runStressParallel(t, cfg, 12, paranoid)

		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		s.SetParanoid(0)
		model := stressModel{numLPs: 16}
		s.ForEachLP(func(lp *LP) { lp.Handler = model; lp.State = &stressState{} })
		schedule(s.Schedule)
		var harvested []boot
		s.ForEachBootstrap(func(dst LPID, tm Time, data any) {
			harvested = append(harvested, boot{dst, tm, data.(*stressMsg).TTL})
		})
		if len(harvested) != 16 {
			t.Fatalf("harvested %d bootstrap events, want 16", len(harvested))
		}
		s.DropBootstrap()
		for _, b := range harvested {
			s.Schedule(b.dst, b.t, &stressMsg{TTL: b.ttl})
		}
		if _, err := s.Run(); err != nil {
			t.Fatal(err)
		}
		got := snapshotStress(s.NumLPs(), s.LP)
		if !reflect.DeepEqual(got, want) {
			t.Fatal("harvest/drop/re-schedule changed the parallel trajectory")
		}
	})

	t.Run("sequential", func(t *testing.T) {
		cfg := Config{NumLPs: 16, EndTime: 30, Seed: 3}
		want, _ := runStressSequential(t, cfg, 12)

		q, err := NewSequential(cfg)
		if err != nil {
			t.Fatal(err)
		}
		model := stressModel{numLPs: 16}
		q.ForEachLP(func(lp *LP) { lp.Handler = model; lp.State = &stressState{} })
		schedule(q.Schedule)
		var harvested []boot
		q.ForEachBootstrap(func(dst LPID, tm Time, data any) {
			harvested = append(harvested, boot{dst, tm, data.(*stressMsg).TTL})
		})
		q.DropBootstrap()
		for _, b := range harvested {
			q.Schedule(b.dst, b.t, &stressMsg{TTL: b.ttl})
		}
		if _, err := q.Run(); err != nil {
			t.Fatal(err)
		}
		got := snapshotStress(q.NumLPs(), q.LP)
		if !reflect.DeepEqual(got, want) {
			t.Fatal("harvest/drop/re-schedule changed the sequential trajectory")
		}
	})
}
