package core

import (
	"reflect"
	"testing"
)

// TestKPStatsConsistent: the run's PeakLiveEvents is the sum of the KPs'
// memory high-water marks, and positive for a run with work.
func TestKPStatsConsistent(t *testing.T) {
	cfg := Config{NumLPs: 64, EndTime: 50, Seed: 3, NumPEs: 4, NumKPs: 8, BatchSize: 4, GVTInterval: 2}
	var s *Simulator
	_, stats := runStressParallel(t, cfg, 20, func(sim *Simulator) { s = sim })
	peak := 0
	for _, kp := range s.kps {
		peak += kp.peakLive
	}
	if peak != stats.PeakLiveEvents || peak <= 0 {
		t.Fatalf("peak live events %d (sum %d)", stats.PeakLiveEvents, peak)
	}
}

// TestMaxOptimismReducesPeakLive: bounding speculation must bound the
// optimistic memory footprint.
func TestMaxOptimismReducesPeakLive(t *testing.T) {
	run := func(maxOpt Time) int {
		cfg := Config{NumLPs: 64, EndTime: 100, Seed: 5, NumPEs: 4, NumKPs: 8,
			BatchSize: 64, GVTInterval: 32, MaxOptimism: maxOpt}
		_, stats := runStressParallel(t, cfg, 50)
		return stats.PeakLiveEvents
	}
	wild := run(0)
	tame := run(1)
	if tame > wild {
		t.Fatalf("throttled peak %d > unthrottled %d", tame, wild)
	}
}

// TestCountersAddFoldsEveryField sets every field of two records to
// distinct values and checks that add sums each one, except the two
// per-PE high-water marks, which take the max. A counter added to the
// record but left out of the fold fails here.
func TestCountersAddFoldsEveryField(t *testing.T) {
	var a, b Counters
	va, vb := reflect.ValueOf(&a).Elem(), reflect.ValueOf(&b).Elem()
	for i := 0; i < va.NumField(); i++ {
		if va.Field(i).Kind() != reflect.Int64 {
			t.Fatalf("Counters.%s is a %s; the fold handles int64 counts and durations only",
				va.Type().Field(i).Name, va.Field(i).Type())
		}
		// Distinct per field, and a's value is the larger one on odd
		// fields, so a max taken from the wrong side shows.
		x, y := int64(1000+i), int64(2*(i+1))
		if i%2 == 0 {
			x, y = y, x
		}
		va.Field(i).SetInt(x)
		vb.Field(i).SetInt(y)
	}
	want := a
	a.add(&b)
	got := reflect.ValueOf(a)
	for i := 0; i < got.NumField(); i++ {
		name := got.Type().Field(i).Name
		x, y := reflect.ValueOf(want).Field(i).Int(), vb.Field(i).Int()
		exp := x + y
		if name == "MailboxPeak" || name == "LivePeak" {
			exp = max(x, y)
		}
		if g := got.Field(i).Int(); g != exp {
			t.Errorf("add: %s = %d, want %d (from %d and %d)", name, g, exp, x, y)
		}
	}
}
