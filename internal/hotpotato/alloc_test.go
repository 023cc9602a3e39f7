package hotpotato

import (
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/replay"
	"repro/internal/trace"
)

// allocsPerEvent runs an already built simulation and returns heap
// allocations per committed event, counted the way the benchmark counts
// them: the MemStats.Mallocs delta over Run.
func allocsPerEvent(t *testing.T, run func() (*core.Stats, error)) float64 {
	t.Helper()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	ks, err := run()
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if ks.Committed == 0 {
		t.Fatal("nothing committed")
	}
	return float64(after.Mallocs-before.Mallocs) / float64(ks.Committed)
}

// TestEventPathAllocs guards the allocation-free event path: the routing
// context and its random sources are bound once per LP, events come from
// the kernel's slabs with their sent lists inline, and payloads are the
// PE's spares (core.LP.Spare), so what is left is start-up growth of the
// pools, the pending set and the lanes — about one allocation per hundred
// committed events. A closure or context built per ROUTE or INJECT costs
// more than one per event, and a payload or sent list allocated per send
// about one per three; either fails this at once. The limits hold under
// the race detector too: payload reuse no longer goes through a pool that
// drops Puts there.
func TestEventPathAllocs(t *testing.T) {
	cfg := DefaultConfig(16)
	cfg.Steps = 800
	cfg.Seed = 5

	seq, _, err := BuildSequential(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got, limit := allocsPerEvent(t, seq.Run), 0.004; got > limit {
		t.Errorf("sequential: %.4f allocs per committed event, want <= %v", got, limit)
	}

	cfg.NumPEs = 2
	sim, _, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got, limit := allocsPerEvent(t, sim.Run), 0.012; got > limit {
		t.Errorf("2 PEs: %.4f allocs per committed event, want <= %v", got, limit)
	}
}

// TestScratchStaysOutOfState: the per-LP routing scratch must be invisible
// to everything that observes or replaces Router — trace.StateHash renders
// the whole struct and the state codec overwrites it on restore. A 2-PE run
// under fault injection and a run restored from a mid-run checkpoint must
// both end in the sequential run's state, hash for hash.
func TestScratchStaysOutOfState(t *testing.T) {
	cfg := DefaultConfig(8)
	cfg.Steps = 60
	cfg.Seed = 11
	cfg.InjectorPercent = 50

	seq, m, err := BuildSequential(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := seq.Run(); err != nil {
		t.Fatal(err)
	}
	wantTotals, wantHash := m.Totals(seq), trace.StateHash(seq)

	check := func(name string, sim *core.Simulator, m *Model) {
		t.Helper()
		if _, err := sim.Run(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		snapshot(t, sim)
		if got := m.Totals(sim); got != wantTotals {
			t.Errorf("%s: totals differ from sequential:\n got %+v\nwant %+v", name, got, wantTotals)
		}
		if got := trace.StateHash(sim); got != wantHash {
			t.Errorf("%s: state hash %016x, sequential %016x", name, got, wantHash)
		}
	}

	cfg.NumPEs = 2
	sim, m, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.SetFaults(&core.Faults{Seed: 1, RollbackEvery: 3, RollbackDepth: 8, ShuffleMail: true, MailBurst: 2}); err != nil {
		t.Fatal(err)
	}
	check("fault-injected", sim, m)

	// Checkpoint a run, then restore the last published cut into a fresh
	// build: every Router is decoded over, and the run must still finish.
	dir := t.TempDir()
	w, err := replay.NewCheckpointWriter(dir, StateCodecName, CodecName, nil)
	if err != nil {
		t.Fatal(err)
	}
	if sim, m, err = Build(cfg); err != nil {
		t.Fatal(err)
	}
	sim.SetCheckpoint(w, 2)
	check("checkpointing", sim, m)
	cp, err := replay.LoadCheckpoint(dir)
	if err != nil {
		t.Fatal(err)
	}
	if cp.GVT <= 0 || cp.GVT >= core.Time(cfg.Steps) {
		t.Fatalf("checkpoint at GVT %v is not mid-run", cp.GVT)
	}
	if sim, m, err = Build(cfg); err != nil {
		t.Fatal(err)
	}
	if err := replay.RestoreCheckpoint(cp, sim, nil); err != nil {
		t.Fatal(err)
	}
	check("restored", sim, m)
}

// TestInjectorQueueTrimmedInPlace: an injector's queue is trimmed as its
// injections commit, within the array it already has. Under a light load
// the queue stays a few entries long, so over a long run its capacity must
// stay near the trim threshold on both engines, with identical results.
func TestInjectorQueueTrimmedInPlace(t *testing.T) {
	const maxCap = 1024
	cfg := DefaultConfig(8)
	cfg.Steps = 2000
	cfg.Seed = 9
	cfg.InitialFill = 0
	cfg.InjectionProb = 0.25

	run := func(h core.Host, m *Model, run func() (*core.Stats, error)) (Totals, uint64) {
		t.Helper()
		if _, err := run(); err != nil {
			t.Fatal(err)
		}
		snapshot(t, h)
		h.ForEachLP(func(lp *core.LP) {
			r := lp.State.(*Router)
			if r.qBase == 0 && r.isInjector {
				t.Errorf("LP %d: queue never trimmed", lp.ID)
			}
			if cap(r.queue) > maxCap {
				t.Errorf("LP %d: queue capacity %d after %d generated, want <= %d",
					lp.ID, cap(r.queue), r.stats.Generated, maxCap)
			}
		})
		return m.Totals(h), trace.StateHash(h)
	}

	seq, m, err := BuildSequential(cfg)
	if err != nil {
		t.Fatal(err)
	}
	wantTotals, wantHash := run(seq, m, seq.Run)
	if wantTotals.StillQueued > 64*int64(wantTotals.Injectors) {
		t.Fatalf("load is not light: %d packets still queued", wantTotals.StillQueued)
	}

	cfg.NumPEs = 2
	sim, m, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if gotTotals, gotHash := run(sim, m, sim.Run); gotTotals != wantTotals || gotHash != wantHash {
		t.Errorf("2 PEs: totals/state hash differ from sequential:\n got %+v %016x\nwant %+v %016x",
			gotTotals, gotHash, wantTotals, wantHash)
	}
}
