package pcs

import (
	"testing"

	"repro/internal/core"
)

func snapshot(h core.Host) []Cell {
	out := make([]Cell, h.NumLPs())
	for i := range out {
		out[i] = *h.LP(core.LPID(i)).State.(*Cell)
	}
	return out
}

// TestParallelMatchesSequential: the PCS model must be rollback-exact too.
func TestParallelMatchesSequential(t *testing.T) {
	cfg := Config{N: 6, Channels: 4, MeanInterarrival: 0.5, EndTime: 40, Seed: 23}
	seq, _, err := BuildSequential(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := seq.Run(); err != nil {
		t.Fatal(err)
	}
	want := snapshot(seq)

	for _, pes := range []int{2, 4} {
		pcfg := cfg
		pcfg.NumPEs = pes
		pcfg.NumKPs = 4 * pes
		pcfg.BatchSize = 4
		pcfg.GVTInterval = 2
		sim, _, err := Build(pcfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sim.Run(); err != nil {
			t.Fatal(err)
		}
		got := snapshot(sim)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("pes=%d cell %d: %+v != %+v", pes, i, got[i], want[i])
			}
		}
	}
}

// TestCallConservation: every admitted call is eventually completed,
// dropped, or still engaged at the horizon (handoffs travel in 1ns, so
// in-flight calls at the horizon are negligible and tolerated via slack).
func TestCallConservation(t *testing.T) {
	cfg := Config{N: 8, Channels: 6, MeanInterarrival: 0.8, EndTime: 60, Seed: 5}
	seq, m, err := BuildSequential(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := seq.Run(); err != nil {
		t.Fatal(err)
	}
	tot := m.Totals(seq)
	admitted := tot.Arrivals - tot.Blocked
	accounted := tot.Completed + tot.Dropped + tot.Engaged
	diff := admitted - accounted
	if diff < 0 || diff > 4 {
		t.Fatalf("conservation: admitted %d, accounted %d", admitted, accounted)
	}
	if tot.Arrivals == 0 {
		t.Fatal("no calls arrived")
	}
}

// TestBlockingGrowsWithLoad: fewer channels must mean more blocking — the
// Erlang-loss shape the model exists to produce.
func TestBlockingGrowsWithLoad(t *testing.T) {
	run := func(channels int) Totals {
		cfg := Config{N: 6, Channels: channels, MeanInterarrival: 0.4, MeanCallDuration: 3, EndTime: 80, Seed: 9}
		seq, m, err := BuildSequential(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := seq.Run(); err != nil {
			t.Fatal(err)
		}
		return m.Totals(seq)
	}
	tight := run(2)
	roomy := run(30)
	if tight.BlockProb <= roomy.BlockProb {
		t.Fatalf("blocking with 2 channels (%.4f) <= with 30 (%.4f)", tight.BlockProb, roomy.BlockProb)
	}
	if tight.BlockProb == 0 {
		t.Fatal("overloaded cell never blocked")
	}
}

// TestBusyNeverExceedsChannels: channel occupancy is bounded — checked on
// the final state of every cell plus implied by the admission logic.
func TestBusyNeverExceedsChannels(t *testing.T) {
	cfg := Config{N: 6, Channels: 3, MeanInterarrival: 0.3, EndTime: 50, Seed: 2}
	seq, _, err := BuildSequential(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := seq.Run(); err != nil {
		t.Fatal(err)
	}
	for _, c := range snapshot(seq) {
		if c.Busy < 0 || c.Busy > cfg.Channels {
			t.Fatalf("cell busy count %d out of [0,%d]", c.Busy, cfg.Channels)
		}
	}
}

// TestHandoffsOccur: with move time comparable to call duration, handoffs
// must actually happen, and dropped <= handoffs.
func TestHandoffsOccur(t *testing.T) {
	cfg := Config{N: 6, MeanMoveTime: 2, MeanCallDuration: 4, EndTime: 60, Seed: 7}
	seq, m, err := BuildSequential(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := seq.Run(); err != nil {
		t.Fatal(err)
	}
	tot := m.Totals(seq)
	if tot.Handoffs == 0 {
		t.Fatal("no handoffs")
	}
	if tot.Dropped > tot.Handoffs {
		t.Fatalf("dropped %d > handoffs %d", tot.Dropped, tot.Handoffs)
	}
	if s := tot.String(); len(s) == 0 {
		t.Fatal("empty rendering")
	}
}

// TestConfigValidation covers the guard rails.
func TestConfigValidation(t *testing.T) {
	if _, _, err := Build(Config{N: 1, EndTime: 10}); err == nil {
		t.Fatal("N=1 accepted")
	}
	if _, _, err := Build(Config{N: 4}); err == nil {
		t.Fatal("zero EndTime accepted")
	}
	cfg := Config{N: 4, EndTime: 10}
	if err := cfg.defaults(); err != nil {
		t.Fatal(err)
	}
	if cfg.Channels != 10 || cfg.MeanCallDuration != 3 || cfg.MeanMoveTime != 6 {
		t.Fatalf("defaults wrong: %+v", cfg)
	}
}

// TestNoConservativeEngine: pcs declares no lookahead, so building it on
// the conservative engine is an error, not a run that violates it.
func TestNoConservativeEngine(t *testing.T) {
	if _, _, err := BuildEngine(core.KindConservative, Config{N: 4, Channels: 4, EndTime: 10}); err == nil {
		t.Fatal("conservative pcs accepted")
	}
}
