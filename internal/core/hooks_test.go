package core

import "testing"

// TestGVTRoundMonotonic: the estimates a RecordSink sees through GVTRound
// must be non-decreasing and end at or beyond the horizon (TimeInfinity
// once the population drains).
func TestGVTRoundMonotonic(t *testing.T) {
	cfg := Config{
		NumLPs: 32, EndTime: 40, Seed: 5, NumPEs: 4, NumKPs: 8,
		BatchSize: 4, GVTInterval: 2,
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sink := &countingSink{}
	s.SetRecord(sink)
	model := stressModel{numLPs: 32}
	s.ForEachLP(func(lp *LP) { lp.Handler = model; lp.State = &stressState{} })
	for i := 0; i < 32; i++ {
		s.Schedule(LPID(i), Time(0.001*float64(i+1)), &stressMsg{TTL: 30})
	}
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	gvts := sink.rounds
	if len(gvts) == 0 {
		t.Fatal("GVTRound never fired")
	}
	for i := 1; i < len(gvts); i++ {
		if gvts[i] < gvts[i-1] {
			t.Fatalf("GVT went backwards: %v then %v", gvts[i-1], gvts[i])
		}
	}
	if last := gvts[len(gvts)-1]; last < cfg.EndTime {
		t.Fatalf("final GVT %v below horizon %v", last, cfg.EndTime)
	}
}

// TestRollbackSinkMatchesStats: the record sink's rollback reports must
// sum to the kernel's rolled-back statistic, with the right secondary
// attribution.
func TestRollbackSinkMatchesStats(t *testing.T) {
	cfg := Config{
		NumLPs: 64, EndTime: 60, Seed: 11, NumPEs: 4, NumKPs: 8,
		BatchSize: 2, GVTInterval: 1,
	}
	sink := &countingSink{}
	_, stats := runStressParallel(t, cfg, 30, func(s *Simulator) { s.SetRecord(sink) })
	if sink.violation != "" {
		t.Fatalf("sink contract violated: %s", sink.violation)
	}
	if sink.events != stats.RolledBackEvents {
		t.Fatalf("sink saw %d rolled-back events, stats %d", sink.events, stats.RolledBackEvents)
	}
	primary := int64(sink.rollbacks - sink.secondary - sink.forced)
	if primary != stats.PrimaryRollbacks || int64(sink.secondary) != stats.SecondaryRollbacks {
		t.Fatalf("sink rollbacks %d/%d, stats %d/%d",
			primary, sink.secondary, stats.PrimaryRollbacks, stats.SecondaryRollbacks)
	}
}
