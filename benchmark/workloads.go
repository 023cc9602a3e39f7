package main

import (
	"fmt"
	"os"

	"repro/internal/core"
	"repro/internal/hotpotato"
	"repro/internal/phold"
	"repro/internal/replay"
	"repro/internal/traffic"
)

// scale fixes the size of every workload. The reference numbers are taken
// at fullScale only; smokeScale exists so bench_test.go can drive the same
// code in a few seconds.
type scale struct {
	torusN, torusSteps int
	pholdLPs           int
	pholdEnd           core.Time
	ckptEvery          int
	// Iterations per timed chunk of the stand-alone probes (probes.go).
	holdsPerChunk, drawsPerChunk int
}

var (
	fullScale = scale{torusN: 32, torusSteps: 400, pholdLPs: 4096, pholdEnd: 150, ckptEvery: 128,
		holdsPerChunk: 250_000, drawsPerChunk: 1_250_000} // 10 M draws over the 8 chunks
	smokeScale = scale{torusN: 8, torusSteps: 20, pholdLPs: 256, pholdEnd: 20, ckptEvery: 8,
		holdsPerChunk: 5_000, drawsPerChunk: 20_000}
)

// numPEs is the PE count of the parallel workloads. It is never raised with
// the host's core count: the reference is "2 PEs on at most 2 cores", and a
// host with fewer cores is reported as oversubscribed rather than skipped.
const numPEs = 2

// instance is one freshly built simulation, good for a single run.
type instance struct {
	run func() (*core.Stats, error)
	// result is the model's own answer (hotpotato.Totals or PHOLD's
	// processed-job total); comparable with ==.
	result func() any
	// sim is the parallel kernel, for arming checkpoints; nil under the
	// sequential engine.
	sim *core.Simulator
	// cleanup removes what the instance left on disk; nil if nothing.
	cleanup func()
}

// workload is one named set of inputs. build makes a fresh instance of the
// program under test from the seed alone; when tr is non-nil it also
// installs the tracer's wrappers at every layer boundary it can reach.
// oracle builds the sequential-engine run of the same model and seed, whose
// committed count and result every repetition must reproduce.
type workload struct {
	name, why string
	layer     string // "hotpotato" or "phold": the model layer the handler metrics are named after
	pes       int
	build     func(seed uint64, tr *repTrace) (*instance, error)
	oracle    func(seed uint64) (*instance, error)
}

// workloads returns the four reference workloads at the given scale.
// Kernel knobs stay at their zero values so the shipped defaults (ladder
// queue, async GVT, block mapping) are what is measured. workDir is where
// the checkpointing workload makes its per-repetition directories.
func workloads(sc scale, workDir string) []workload {
	torus := func(seed uint64, pes int, tr *repTrace) hotpotato.Config {
		cfg := hotpotato.DefaultConfig(sc.torusN)
		cfg.Steps = sc.torusSteps
		cfg.Seed = seed
		cfg.NumPEs = pes
		cfg.Traffic = traffic.Uniform{} // the default, named so it can be wrapped
		if tr != nil {
			cfg.Policy = tr.wrapPolicy(cfg.Policy)
			cfg.Traffic = tr.wrapTraffic(cfg.Traffic)
		}
		return cfg
	}
	torusSeq := func(seed uint64, tr *repTrace) (*instance, error) {
		seq, m, err := hotpotato.BuildSequential(torus(seed, 0, tr))
		if err != nil {
			return nil, err
		}
		tr.wrapHandlers(seq)
		return &instance{run: seq.Run, result: func() any { return m.Totals(seq) }}, nil
	}
	torusTW := func(seed uint64, tr *repTrace) (*instance, error) {
		sim, m, err := hotpotato.Build(torus(seed, numPEs, tr))
		if err != nil {
			return nil, err
		}
		tr.wrapHandlers(sim)
		tr.attach(sim)
		return &instance{run: sim.Run, result: func() any { return m.Totals(sim) }, sim: sim}, nil
	}
	torusCkpt := func(seed uint64, tr *repTrace) (*instance, error) {
		inst, err := torusTW(seed, tr)
		if err != nil {
			return nil, err
		}
		dir, err := os.MkdirTemp(workDir, "ckpt-")
		if err != nil {
			return nil, err
		}
		w, err := replay.NewCheckpointWriter(dir, hotpotato.StateCodecName, hotpotato.CodecName, nil)
		if err != nil {
			os.RemoveAll(dir)
			return nil, err
		}
		inst.sim.SetCheckpoint(tr.wrapSink(w, dir), sc.ckptEvery)
		inst.cleanup = func() { os.RemoveAll(dir) }
		return inst, nil
	}

	pholdCfg := func(seed uint64, pes int) phold.Config {
		return phold.Config{NumLPs: sc.pholdLPs, Population: 8, RemoteProb: 0.5,
			EndTime: sc.pholdEnd, NumPEs: pes, Seed: seed}
	}
	pholdSeq := func(seed uint64) (*instance, error) {
		seq, m, err := phold.BuildSequential(pholdCfg(seed, 0))
		if err != nil {
			return nil, err
		}
		return &instance{run: seq.Run, result: func() any { return m.TotalProcessed(seq) }}, nil
	}
	pholdTW := func(seed uint64, tr *repTrace) (*instance, error) {
		sim, m, err := phold.Build(pholdCfg(seed, numPEs))
		if err != nil {
			return nil, err
		}
		tr.wrapHandlers(sim)
		tr.attach(sim)
		return &instance{run: sim.Run, result: func() any { return m.TotalProcessed(sim) }, sim: sim}, nil
	}
	torusOracle := func(seed uint64) (*instance, error) { return torusSeq(seed, nil) }

	return []workload{
		{
			name: "torus_seq", layer: "hotpotato", pes: 1, build: torusSeq, oracle: torusOracle,
			why: "sequential baseline: the model layers (hotpotato, routing, traffic, rng, eventq) do all the work, core's lanes, GVT and rollback none",
		},
		{
			name: "torus_tw2", layer: "hotpotato", pes: numPEs, build: torusTW, oracle: torusOracle,
			why: "the report's Figure 5/8 workload: same model work plus pool migration, lanes, token GVT and rollback at low cross-PE traffic",
		},
		{
			name: "phold_tw2", layer: "phold", pes: numPEs, build: pholdTW, oracle: pholdSeq,
			why: "kernel-dominated: trivial handler, ten times the torus's mail per event, exponential timestamps; a model-only change must not move it",
		},
		{
			name: "torus_ckpt2", layer: "hotpotato", pes: numPEs, build: torusCkpt, oracle: torusOracle,
			why: "the write path beside the execute path: replay encode, fsync and rename plus core's rendezvous and roll-back-to-GVT at every publication",
		},
	}
}

func findWorkload(ws []workload, name string) (workload, error) {
	for _, w := range ws {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}
