package core

import "testing"

// lookaheadModel is the stress model with a guaranteed minimum delay so
// it is legal under the conservative engine.
type lookaheadModel struct {
	numLPs    int64
	lookahead Time
}

func (m lookaheadModel) Forward(lp *LP, ev *Event) {
	st := lp.State.(*stressState)
	msg := ev.Data.(*stressMsg)
	msg.PrevHash = st.Hash
	st.Hash = st.Hash*1099511628211 ^ uint64(ev.Src()+1)<<17 ^ uint64(ev.RecvTime()*1e6)
	st.Counter++
	if msg.TTL > 0 {
		dst := LPID(lp.RandInt(0, m.numLPs-1))
		delay := m.lookahead + Time(lp.RandExp(1.0))
		lp.Send(dst, delay, &stressMsg{TTL: msg.TTL - 1})
	}
}

func (m lookaheadModel) Reverse(lp *LP, ev *Event) {
	st := lp.State.(*stressState)
	st.Hash = ev.Data.(*stressMsg).PrevHash
	st.Counter--
}

func setupLookahead(h Host, n int, ttl int, la Time) {
	model := lookaheadModel{numLPs: int64(n), lookahead: la}
	h.ForEachLP(func(lp *LP) {
		lp.Handler = model
		lp.State = &stressState{}
	})
	for i := 0; i < n; i++ {
		h.Schedule(LPID(i), Time(0.001*float64(i+1)), &stressMsg{TTL: ttl})
	}
}

// TestConservativeMatchesSequential: the third engine must commit the
// exact sequential history too. The wide case's windows carry more than
// laneCap cross-PE events into one PE, the volume the barrier-ordered
// inboxes must take in one window.
func TestConservativeMatchesSequential(t *testing.T) {
	for _, tc := range []struct {
		name string
		n    int
		la   Time
		pes  []int
		wide bool
	}{
		{"narrow", 48, 0.25, []int{1, 2, 4}, false},
		{"wide", 512, 5, []int{2}, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := Config{NumLPs: tc.n, EndTime: 40, Seed: 9}
			seq, err := NewSequential(cfg)
			if err != nil {
				t.Fatal(err)
			}
			setupLookahead(seq, tc.n, 15, tc.la)
			seqStats, err := seq.Run()
			if err != nil {
				t.Fatal(err)
			}
			want := snapshotStress(tc.n, seq.LP)

			for _, pes := range tc.pes {
				ccfg := cfg
				ccfg.NumPEs = pes
				cons, err := NewConservative(ccfg, tc.la)
				if err != nil {
					t.Fatal(err)
				}
				setupLookahead(cons, tc.n, 15, tc.la)
				stats, err := cons.Run()
				if err != nil {
					t.Fatal(err)
				}
				got := snapshotStress(tc.n, cons.LP)
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("pes=%d LP %d: %+v != %+v", pes, i, got[i], want[i])
					}
				}
				if stats.Committed != seqStats.Committed {
					t.Fatalf("pes=%d: committed %d != %d", pes, stats.Committed, seqStats.Committed)
				}
				if stats.GVTRounds == 0 {
					t.Fatalf("pes=%d: no windows executed", pes)
				}
				if tc.wide {
					// An inbox slice grows past laneCap only when one
					// window appends more than laneCap events to it.
					peak := 0
					for _, pe := range cons.pes {
						for _, in := range pe.inbox {
							peak = max(peak, cap(in))
						}
					}
					if peak <= laneCap {
						t.Fatalf("pes=%d: largest inbox %d, want a window above laneCap %d", pes, peak, laneCap)
					}
				}
			}
		})
	}
}

// TestConservativeLookaheadViolationCaught: a model that sends below its
// declared lookahead must fail the run, not corrupt it.
func TestConservativeLookaheadViolationCaught(t *testing.T) {
	cons, err := NewConservative(Config{NumLPs: 2, NumPEs: 2, EndTime: 10}, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	cons.ForEachLP(func(lp *LP) {
		lp.Handler = funcHandler{
			forward: func(lp *LP, ev *Event) { lp.Send(0, 0.5, nil) }, // below lookahead 1.0
			reverse: func(lp *LP, ev *Event) {},
		}
	})
	cons.Schedule(0, 1, nil)
	if _, err := cons.Run(); err == nil {
		t.Fatal("lookahead violation not surfaced")
	}
}

// TestConservativeValidation: guard rails.
func TestConservativeValidation(t *testing.T) {
	if _, err := NewConservative(Config{NumLPs: 2, EndTime: 10}, 0); err == nil {
		t.Fatal("zero lookahead accepted")
	}
	if _, err := NewConservative(Config{NumLPs: 0, EndTime: 10}, 1); err == nil {
		t.Fatal("invalid config accepted")
	}
	cons, err := NewConservative(Config{NumLPs: 2, NumPEs: 1, EndTime: 10}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cons.Run(); err == nil {
		t.Fatal("Run succeeded without handlers")
	}
}

// TestConservativeEmptyTerminates: no events must still finish.
func TestConservativeEmptyTerminates(t *testing.T) {
	cons, err := NewConservative(Config{NumLPs: 4, NumPEs: 2, EndTime: 100}, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	cons.ForEachLP(func(lp *LP) { lp.Handler = funcHandler{forward: func(*LP, *Event) {}, reverse: func(*LP, *Event) {}} })
	stats, err := cons.Run()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Committed != 0 {
		t.Fatalf("committed %d in empty run", stats.Committed)
	}
}
