package qnet

import (
	"testing"

	"repro/internal/core"
)

// stationView is a comparable snapshot of a station's observable state.
type stationView struct {
	Busy      bool
	Arrivals  int64
	Departs   int64
	WaitTicks int64
	QueueLen  int64
}

func snapshot(h core.Host) []stationView {
	out := make([]stationView, h.NumLPs())
	for i := range out {
		st := h.LP(core.LPID(i)).State.(*Station)
		out[i] = stationView{
			Busy:      st.Busy,
			Arrivals:  st.Arrivals,
			Departs:   st.Departs,
			WaitTicks: st.WaitTicks,
			QueueLen:  st.QueueLen(),
		}
	}
	return out
}

// TestParallelMatchesSequential: the queueing model — with its reversible
// FIFO state and its counters kept at commit — must be rollback-exact. The second config
// runs long enough, with queues deep enough, that the FIFO is trimmed at
// commit while speculative departures have moved the live head past
// entries a rollback needs again.
func TestParallelMatchesSequential(t *testing.T) {
	for _, cfg := range []Config{
		{N: 6, JobsPerStation: 3, MeanService: 0.8, EndTime: 40, Seed: 41},
		{N: 4, JobsPerStation: 32, MeanService: 1, EndTime: 1500, Seed: 41},
	} {
		seq, _, err := BuildEngine(core.KindSequential, cfg)
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
			sim, _, err := BuildEngine(core.KindOptimistic, pcfg)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := sim.Run(); err != nil {
				t.Fatalf("N=%d pes=%d: %v", cfg.N, pes, err)
			}
			got := snapshot(sim)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("N=%d pes=%d station %d: %+v != %+v", cfg.N, pes, i, got[i], want[i])
				}
			}
		}
	}
}

// TestClosedPopulation: jobs are never created or destroyed — final
// population equals the initial one, modulo jobs in 1ns flight at the
// horizon.
func TestClosedPopulation(t *testing.T) {
	cfg := Config{N: 8, JobsPerStation: 4, EndTime: 60, Seed: 3}
	seq, m, err := BuildEngine(core.KindSequential, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := seq.Run(); err != nil {
		t.Fatal(err)
	}
	tot := m.Totals(seq, cfg.EndTime)
	initial := int64(8 * 8 * cfg.JobsPerStation)
	diff := initial - tot.Population
	if diff < 0 || diff > 8 {
		t.Fatalf("population %d of %d (diff %d)", tot.Population, initial, diff)
	}
	if tot.Departs == 0 || tot.Arrivals < tot.Departs {
		t.Fatalf("flow accounting wrong: %+v", tot)
	}
}

// TestLittlesLawRoughly: mean population = throughput × mean sojourn
// (L = λW), within simulation tolerance — a strong end-to-end sanity
// check of the queueing dynamics and statistics together.
func TestLittlesLawRoughly(t *testing.T) {
	cfg := Config{N: 8, JobsPerStation: 3, MeanService: 1, EndTime: 400, Seed: 5}
	seq, m, err := BuildEngine(core.KindSequential, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := seq.Run(); err != nil {
		t.Fatal(err)
	}
	tot := m.Totals(seq, cfg.EndTime)
	l := float64(8 * 8 * cfg.JobsPerStation) // closed population is constant
	lambda := tot.Throughput * float64(tot.Stations)
	w := tot.AvgWait
	predicted := lambda * w
	ratio := predicted / l
	if ratio < 0.85 || ratio > 1.15 {
		t.Fatalf("Little's law off: λW = %.1f vs L = %.1f (ratio %.3f)", predicted, l, ratio)
	}
}

// TestServiceRateScalesThroughput: halving the mean service time must
// raise throughput substantially on a saturated network.
func TestServiceRateScalesThroughput(t *testing.T) {
	run := func(mean float64) Totals {
		cfg := Config{N: 6, JobsPerStation: 4, MeanService: mean, EndTime: 100, Seed: 7}
		seq, m, err := BuildEngine(core.KindSequential, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := seq.Run(); err != nil {
			t.Fatal(err)
		}
		return m.Totals(seq, cfg.EndTime)
	}
	slow := run(2.0)
	fast := run(1.0)
	if fast.Throughput < 1.5*slow.Throughput {
		t.Fatalf("throughput %.4f with mean 1 vs %.4f with mean 2", fast.Throughput, slow.Throughput)
	}
}

// TestBusyConsistency: a station with waiting jobs must be busy.
func TestBusyConsistency(t *testing.T) {
	cfg := Config{N: 6, JobsPerStation: 2, EndTime: 50, Seed: 9}
	seq, _, err := BuildEngine(core.KindSequential, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := seq.Run(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < seq.NumLPs(); i++ {
		st := seq.LP(core.LPID(i)).State.(*Station)
		if st.QueueLen() > 0 && !st.Busy {
			t.Fatalf("station %d has %d waiting jobs but an idle server", i, st.QueueLen())
		}
		if st.QueueLen() < 0 {
			t.Fatalf("station %d has negative queue %d", i, st.QueueLen())
		}
	}
}

// TestConfigValidation covers the guard rails and defaults.
func TestConfigValidation(t *testing.T) {
	if _, _, err := BuildEngine(core.KindOptimistic, Config{N: 1, EndTime: 10}); err == nil {
		t.Fatal("N=1 accepted")
	}
	if _, _, err := BuildEngine(core.KindOptimistic, Config{N: 4}); err == nil {
		t.Fatal("zero EndTime accepted")
	}
	cfg := Config{N: 4, EndTime: 10}
	if err := cfg.defaults(); err != nil {
		t.Fatal(err)
	}
	if cfg.JobsPerStation != 2 || cfg.MeanService != 1 {
		t.Fatalf("defaults wrong: %+v", cfg)
	}
	tot := Totals{Stations: 1}
	if s := tot.String(); len(s) == 0 {
		t.Fatal("empty rendering")
	}
}

// TestNoConservativeEngine: qnet declares no lookahead, so building it on
// the conservative engine is an error, not a run that violates it.
func TestNoConservativeEngine(t *testing.T) {
	if _, _, err := BuildEngine(core.KindConservative, Config{N: 4, EndTime: 10}); err == nil {
		t.Fatal("conservative qnet accepted")
	}
}
