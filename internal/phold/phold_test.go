package phold

import (
	"runtime"
	"testing"

	"repro/internal/core"
)

func snapshot(h core.Host) []int64 {
	out := make([]int64, h.NumLPs())
	for i := range out {
		out[i] = h.LP(core.LPID(i)).State.(*State).Processed
	}
	return out
}

// TestParallelMatchesSequential: PHOLD under heavy remote traffic must
// commit the sequential history exactly.
func TestParallelMatchesSequential(t *testing.T) {
	cfg := Config{NumLPs: 64, Population: 4, RemoteProb: 0.9, EndTime: 30, Seed: 17}
	seq, sm, err := BuildSequential(cfg)
	if err != nil {
		t.Fatal(err)
	}
	seqStats, err := seq.Run()
	if err != nil {
		t.Fatal(err)
	}
	want := snapshot(seq)
	if sm.TotalProcessed(seq) == 0 {
		t.Fatal("sequential run processed nothing")
	}

	for _, pes := range []int{1, 2, 4} {
		pcfg := cfg
		pcfg.NumPEs = pes
		pcfg.NumKPs = 4 * pes
		pcfg.BatchSize = 4
		pcfg.GVTInterval = 2
		sim, _, err := Build(pcfg)
		if err != nil {
			t.Fatal(err)
		}
		parStats, err := sim.Run()
		if err != nil {
			t.Fatal(err)
		}
		got := snapshot(sim)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("pes=%d LP %d: %d != %d", pes, i, got[i], want[i])
			}
		}
		if parStats.Committed != seqStats.Committed {
			t.Fatalf("pes=%d: committed %d != %d", pes, parStats.Committed, seqStats.Committed)
		}
	}
}

// TestPopulationIsConserved: PHOLD's invariant — each processed event
// sends exactly one event, so the in-flight population never changes and
// processed counts track EndTime * population / meanDelay roughly.
func TestPopulationIsConserved(t *testing.T) {
	cfg := Config{NumLPs: 32, Population: 2, RemoteProb: 0.5, EndTime: 100, Seed: 3}
	seq, m, err := BuildSequential(cfg)
	if err != nil {
		t.Fatal(err)
	}
	stats, err := seq.Run()
	if err != nil {
		t.Fatal(err)
	}
	if m.TotalProcessed(seq) != stats.Committed {
		t.Fatalf("model count %d != kernel count %d", m.TotalProcessed(seq), stats.Committed)
	}
	// 64 jobs, mean hold 1.1 (delay+lookahead), horizon 100 →
	// roughly 64*100/1.1 ≈ 5800 events; accept a broad band.
	if stats.Committed < 4000 || stats.Committed > 8000 {
		t.Fatalf("committed %d far from expectation", stats.Committed)
	}
}

// TestConservativeMatchesSequential: PHOLD under the conservative engine
// must commit the sequential history (its lookahead is explicit).
func TestConservativeMatchesSequential(t *testing.T) {
	cfg := Config{NumLPs: 32, Population: 2, RemoteProb: 0.7, Lookahead: 0.2, EndTime: 20, Seed: 19}
	seq, _, err := BuildSequential(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := seq.Run(); err != nil {
		t.Fatal(err)
	}
	want := snapshot(seq)

	ccfg := cfg
	ccfg.NumPEs = 4
	cons, _, err := BuildEngine(core.KindConservative, ccfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cons.Run(); err != nil {
		t.Fatal(err)
	}
	got := snapshot(cons)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("LP %d: conservative %d != sequential %d", i, got[i], want[i])
		}
	}
}

// TestRemoteProbExtremes: RemoteProb 0 must still run (self-loops only),
// and the config guard must reject out-of-range values.
func TestRemoteProbExtremes(t *testing.T) {
	cfg := Config{NumLPs: 8, RemoteProb: 0, EndTime: 10, Seed: 1}
	seq, m, err := BuildSequential(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := seq.Run(); err != nil {
		t.Fatal(err)
	}
	if m.TotalProcessed(seq) == 0 {
		t.Fatal("no events with RemoteProb=0")
	}
	if _, _, err := Build(Config{NumLPs: 8, RemoteProb: 1.5, EndTime: 10}); err == nil {
		t.Fatal("RemoteProb > 1 accepted")
	}
	if _, _, err := Build(Config{NumLPs: 0, EndTime: 10}); err == nil {
		t.Fatal("zero LPs accepted")
	}
	if _, _, err := Build(Config{NumLPs: 8}); err == nil {
		t.Fatal("zero EndTime accepted")
	}
}

// TestDefaultsApplied: zero optional fields must be filled.
func TestDefaultsApplied(t *testing.T) {
	cfg := Config{NumLPs: 4, EndTime: 5}
	if err := cfg.defaults(); err != nil {
		t.Fatal(err)
	}
	if cfg.Population != 1 || cfg.MeanDelay != 1 || cfg.Lookahead != 0.1 {
		t.Fatalf("defaults wrong: %+v", cfg)
	}
}

// TestEventPathAllocs is the PHOLD twin of hotpotato's test of that name:
// jobs carry no payload, so the kernel's own lifecycle is all there is —
// slab-backed events, inline sent lists, one reused reclaim bound per PE.
// What remains is start-up growth, about one allocation per hundred
// committed events on 2 PEs; an event or a sent list allocated per send
// costs one per event and fails this at once.
func TestEventPathAllocs(t *testing.T) {
	const limit = 0.012
	sim, _, err := Build(Config{NumLPs: 1024, Population: 8, RemoteProb: 0.5, EndTime: 60, Seed: 5, NumPEs: 2})
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	ks, err := sim.Run()
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if ks.Committed == 0 {
		t.Fatal("nothing committed")
	}
	if got := float64(after.Mallocs-before.Mallocs) / float64(ks.Committed); got > limit {
		t.Errorf("2 PEs: %.4f allocs per committed event (%d committed), want <= %v", got, ks.Committed, limit)
	}
}
