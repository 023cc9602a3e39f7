package hotpotato

// Tests for the extension features: variable injection rates, worst-case
// delivery tracking, and the delivery-vs-distance profile.

import (
	"testing"

	"repro/internal/core"
)

// runSeqModel is runSeq but also returning the model for profile access.
func runSeqModel(t *testing.T, cfg Config) (Totals, *Model, core.Host) {
	t.Helper()
	seq, m, err := BuildSequential(cfg)
	if err != nil {
		t.Fatalf("BuildSequential: %v", err)
	}
	if _, err := seq.Run(); err != nil {
		t.Fatalf("sequential Run: %v", err)
	}
	snapshot(t, seq)
	return m.Totals(seq), m, seq
}

// TestInjectionProbThrottles: a lower per-step generation probability must
// generate proportionally fewer packets and shrink the injection backlog.
func TestInjectionProbThrottles(t *testing.T) {
	base := DefaultConfig(8)
	base.Steps = 120
	base.Seed = 31
	full, _, _ := runSeqModel(t, base)

	slow := base
	slow.InjectionProb = 0.25
	quarter, _, _ := runSeqModel(t, slow)

	if quarter.Generated >= full.Generated {
		t.Fatalf("generated %d at prob 0.25 >= %d at prob 1", quarter.Generated, full.Generated)
	}
	ratio := float64(quarter.Generated) / float64(full.Generated)
	if ratio < 0.15 || ratio > 0.35 {
		t.Fatalf("generation ratio %.3f far from 0.25", ratio)
	}
	if quarter.AvgWait >= full.AvgWait {
		t.Fatalf("slower sources wait longer: %.2f vs %.2f", quarter.AvgWait, full.AvgWait)
	}
	if quarter.StillQueued >= full.StillQueued {
		t.Fatalf("slower sources have bigger backlog: %d vs %d", quarter.StillQueued, full.StillQueued)
	}
}

// TestInjectionProbDeterministicParallel: the probabilistic generation
// path must stay rollback-exact.
func TestInjectionProbDeterministicParallel(t *testing.T) {
	cfg := DefaultConfig(8)
	cfg.Steps = 60
	cfg.Seed = 33
	cfg.InjectionProb = 0.5
	want, _ := runSeq(t, cfg)

	pcfg := cfg
	pcfg.NumPEs = 4
	pcfg.NumKPs = 16
	pcfg.BatchSize = 4
	pcfg.GVTInterval = 2
	got, _, _ := runPar(t, pcfg)
	if got != want {
		t.Fatalf("totals mismatch with InjectionProb:\npar: %+v\nseq: %+v", got, want)
	}
}

// TestInjectionProbValidation: out-of-range probabilities are rejected,
// and the zero value means 1.
func TestInjectionProbValidation(t *testing.T) {
	cfg := DefaultConfig(4)
	cfg.InjectionProb = -0.1
	if _, _, err := Build(cfg); err == nil {
		t.Fatal("negative InjectionProb accepted")
	}
	cfg.InjectionProb = 1.5
	if _, _, err := Build(cfg); err == nil {
		t.Fatal("InjectionProb > 1 accepted")
	}
	cfg = DefaultConfig(4)
	cfg.InjectionProb = 0
	cfg.Steps = 10
	totals, _, _ := runSeqModel(t, cfg)
	if totals.Generated == 0 {
		t.Fatal("zero-value InjectionProb did not default to 1")
	}
}

// TestMaxDeliveryBounds: the worst delivery time must be at least the
// average and at least the observed per-bucket means.
func TestMaxDeliveryBounds(t *testing.T) {
	cfg := DefaultConfig(8)
	cfg.Steps = 100
	cfg.Seed = 35
	totals, m, h := runSeqModel(t, cfg)
	if totals.MaxDelivery < totals.AvgDelivery {
		t.Fatalf("max delivery %.2f < avg %.2f", totals.MaxDelivery, totals.AvgDelivery)
	}
	for _, p := range m.DeliveryProfile(h) {
		if p.AvgDelivery > totals.MaxDelivery {
			t.Fatalf("bucket at distance %.1f has avg %.2f above global max %.2f",
				p.Distance, p.AvgDelivery, totals.MaxDelivery)
		}
	}
}

// TestDeliveryProfileShape: the profile must cover the delivered packets
// exactly, every bucket mean must be at least its distance (a packet needs
// at least dist steps), and the far half of the network must take longer
// than the near half — the empirical E[delivery | distance] = O(distance)
// curve of the SPAA 2001 analysis.
func TestDeliveryProfileShape(t *testing.T) {
	cfg := DefaultConfig(12)
	cfg.Steps = 150
	cfg.Seed = 37
	totals, m, h := runSeqModel(t, cfg)
	profile := m.DeliveryProfile(h)
	if len(profile) == 0 {
		t.Fatal("empty profile")
	}
	var count int64
	for _, p := range profile {
		count += p.Count
		// The bucket's representative distance is a midpoint, so allow the
		// bin width as slack below it.
		width := float64(m.MaxDist()+1) / DistBuckets
		if p.AvgDelivery < p.Distance-width {
			t.Fatalf("bucket at distance %.2f has impossible mean delivery %.2f",
				p.Distance, p.AvgDelivery)
		}
	}
	if count != totals.Delivered {
		t.Fatalf("profile covers %d packets, delivered %d", count, totals.Delivered)
	}
	near, far := profile[0], profile[len(profile)-1]
	if far.AvgDelivery <= near.AvgDelivery {
		t.Fatalf("distance %.1f delivers in %.2f, not slower than %.2f at %.1f",
			far.Distance, far.AvgDelivery, near.AvgDelivery, near.Distance)
	}
}

// TestTimeSeriesShape: the delivery time series must cover all deliveries
// exactly and show the warm-up: early-bin latency (short, initial fill
// deliveries near their sources dominate... actually the earliest bins
// can only contain short transits — nothing longer than the elapsed time
// fits) must be below the steady-state latency of the last bins.
func TestTimeSeriesShape(t *testing.T) {
	cfg := DefaultConfig(12)
	cfg.Steps = 160
	cfg.Seed = 71
	totals, m, h := runSeqModel(t, cfg)
	series := m.TimeSeries(h)
	if len(series) < TimeBuckets/2 {
		t.Fatalf("series has only %d bins", len(series))
	}
	var count int64
	for i, p := range series {
		count += p.Count
		if p.AvgDelivery > float64(p.Step)+1 {
			t.Fatalf("bin at step %.1f reports delivery %.1f longer than elapsed time",
				p.Step, p.AvgDelivery)
		}
		if i > 0 && p.Step <= series[i-1].Step {
			t.Fatal("series steps not increasing")
		}
	}
	if count != totals.Delivered {
		t.Fatalf("series covers %d deliveries, total %d", count, totals.Delivered)
	}
	first, last := series[0], series[len(series)-1]
	if first.AvgDelivery >= last.AvgDelivery {
		t.Fatalf("no warm-up visible: first bin %.2f >= last bin %.2f",
			first.AvgDelivery, last.AvgDelivery)
	}
	// Steady state: the last quarter of bins should agree within a factor.
	tail := series[len(series)-TimeBuckets/4:]
	lo, hi := tail[0].AvgDelivery, tail[0].AvgDelivery
	for _, p := range tail {
		if p.AvgDelivery < lo {
			lo = p.AvgDelivery
		}
		if p.AvgDelivery > hi {
			hi = p.AvgDelivery
		}
	}
	if hi > 2*lo {
		t.Fatalf("no steady state: tail latency ranges %.2f..%.2f", lo, hi)
	}
}

// TestDistBucketRoundTrip: distBucket and BucketDistance must be
// consistent and in range across the whole diameter.
func TestDistBucketRoundTrip(t *testing.T) {
	cfg := DefaultConfig(16)
	cfg.Steps = 1
	_, m, _ := runSeqModel(t, cfg)
	for d := 0; d <= m.MaxDist(); d++ {
		b := m.distBucket(d)
		if b < 0 || b >= DistBuckets {
			t.Fatalf("distance %d maps to bucket %d", d, b)
		}
		rep := m.BucketDistance(b)
		width := float64(m.MaxDist()+1) / DistBuckets
		if float64(d) < rep-width || float64(d) > rep+width {
			t.Fatalf("distance %d not within its bucket's span (rep %.2f, width %.2f)", d, rep, width)
		}
	}
	if m.MaxDist() != 16 { // even torus diameter is N
		t.Fatalf("MaxDist = %d for a 16-torus", m.MaxDist())
	}
}
