package core

import "testing"

// TestAccessors covers the small read-only surface across all three
// engines: sizes, IDs, placement queries and randomness helpers.
func TestAccessors(t *testing.T) {
	s, err := New(Config{NumLPs: 6, NumPEs: 2, NumKPs: 3, EndTime: 10,
		KPOfLP: func(lp int) int { return lp % 3 },
		PEOfKP: func(kp int) int { return kp % 2 }})
	if err != nil {
		t.Fatal(err)
	}
	if s.NumLPs() != 6 || s.NumKPs() != 3 || s.NumPEs() != 2 {
		t.Fatalf("sizes: %d/%d/%d", s.NumLPs(), s.NumKPs(), s.NumPEs())
	}
	for i := 0; i < 6; i++ {
		lp := s.LP(LPID(i))
		if lp.ID != LPID(i) {
			t.Fatalf("LP %d has ID %d", i, lp.ID)
		}
		if kp := s.kpOf(LPID(i)).ID(); kp != i%3 {
			t.Fatalf("LP %d on KP %d, want %d", i, kp, i%3)
		}
	}
	for _, kp := range s.kps {
		if kp.ID() != kp.id {
			t.Fatal("KP.ID accessor broken")
		}
	}
	for _, pe := range s.pes {
		if pe.ID() != pe.id {
			t.Fatal("PE.ID accessor broken")
		}
	}
	if s.has(-1) || s.has(6) || !s.has(5) {
		t.Fatal("has misjudged the LP range")
	}

	cons, err := NewConservative(Config{NumLPs: 4, NumPEs: 2, EndTime: 10}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if cons.NumLPs() != 4 {
		t.Fatalf("conservative NumLPs = %d", cons.NumLPs())
	}
	mustPanic(t, "conservative negative time", func() { cons.Schedule(0, -1, nil) })
	mustPanic(t, "conservative unknown LP", func() { cons.Schedule(99, 0, nil) })

	seq, err := NewSequential(Config{NumLPs: 4, EndTime: 10})
	if err != nil {
		t.Fatal(err)
	}
	mustPanic(t, "sequential negative time", func() { seq.Schedule(0, -1, nil) })
	mustPanic(t, "sequential unknown LP", func() { seq.Schedule(99, 0, nil) })
}

// TestRandBoolAndNow exercises the remaining LP helpers inside a handler.
func TestRandBoolAndNow(t *testing.T) {
	s, err := New(Config{NumLPs: 1, NumPEs: 1, EndTime: 10, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	trues, total := 0, 0
	s.LP(0).Handler = funcHandler{
		forward: func(lp *LP, ev *Event) {
			if lp.Now() != ev.RecvTime() {
				t.Errorf("Now %v != RecvTime %v", lp.Now(), ev.RecvTime())
			}
			total++
			if lp.RandBool(0.5) {
				trues++
			}
			if ev.RecvTime() < 9 {
				lp.SendSelf(0.5, nil)
			}
		},
		reverse: func(lp *LP, ev *Event) {},
	}
	s.Schedule(0, 0.25, nil)
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if total == 0 {
		t.Fatal("no events ran")
	}
	if trues == 0 || trues == total {
		t.Logf("RandBool produced %d/%d trues (small sample; informational)", trues, total)
	}
}

// TestStateSaverDepthAccessor covers the test hook itself.
func TestStateSaverDepthAccessor(t *testing.T) {
	saver := StateSaving(snapStressModel{numLPs: 1}).(*stateSaver)
	if saver.depth() != 0 {
		t.Fatalf("fresh depth %d", saver.depth())
	}
	saver.snaps = append(saver.snaps, 1, 2, 3)
	saver.base = 1
	if saver.depth() != 2 {
		t.Fatalf("depth %d, want 2", saver.depth())
	}
}
