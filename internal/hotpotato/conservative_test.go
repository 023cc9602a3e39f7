package hotpotato

import (
	"testing"

	"repro/internal/core"
)

// TestConservativeMatchesSequential: the conservative engine must produce
// the identical hot-potato history — three engines, one result.
func TestConservativeMatchesSequential(t *testing.T) {
	cfg := DefaultConfig(8)
	cfg.Steps = 40
	cfg.Seed = 51
	want, wantStats := runSeq(t, cfg)

	for _, pes := range []int{1, 2, 4} {
		ccfg := cfg
		ccfg.NumPEs = pes
		cons, m, err := BuildEngine(core.KindConservative, ccfg)
		if err != nil {
			t.Fatal(err)
		}
		ks, err := cons.Run()
		if err != nil {
			t.Fatal(err)
		}
		got := m.Totals(cons)
		if got != want {
			t.Fatalf("pes=%d: conservative totals differ:\ncons: %+v\nseq:  %+v", pes, got, want)
		}
		for i, st := range snapshot(t, cons) {
			if st != wantStats[i] {
				t.Fatalf("pes=%d router %d: conservative stats differ:\ncons: %+v\nseq:  %+v", pes, i, st, wantStats[i])
			}
		}
		if ks.GVTRounds == 0 {
			t.Fatalf("pes=%d: no windows executed", pes)
		}
	}
}

// TestConservativeWindowCount: the window count must be bounded by the
// schedule's density — at most (span of activity / lookahead) windows,
// and at least one window per step (events exist in every step).
func TestConservativeWindowCount(t *testing.T) {
	cfg := DefaultConfig(6)
	cfg.Steps = 20
	cfg.Seed = 52
	cons, _, err := BuildEngine(core.KindConservative, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ks, err := cons.Run()
	if err != nil {
		t.Fatal(err)
	}
	maxWindows := int64(float64(cfg.Steps)/float64(Lookahead)) + 2
	if ks.GVTRounds < int64(cfg.Steps) || ks.GVTRounds > maxWindows {
		t.Fatalf("windows = %d, want within [%d, %d]", ks.GVTRounds, cfg.Steps, maxWindows)
	}
}
