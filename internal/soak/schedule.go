package soak

// Schedule generation: a soak run is a deterministic function of its seed.
// Every knob an episode turns — engine, PE/KP shape, model seed, fault
// composition, memory budget — is drawn from a single bounded entropy
// source, so the same seed replays the same schedule byte for byte, and
// the fuzz target can substitute arbitrary bytes for the RNG and explore
// the exact same schedule space.

import (
	"repro/internal/core"
	"repro/internal/simcheck"
)

// source is the schedule generator's only entropy interface: a bounded
// non-negative draw. *math/rand.Rand satisfies it directly; byteSource
// adapts fuzz input.
type source interface {
	Intn(n int) int
}

// byteSource drives schedule generation from raw bytes (the fuzz target's
// input). Each draw consumes one byte reduced mod n; an exhausted source
// yields zeros, so every byte string decodes to some valid schedule —
// there is no "parse error" surface for the fuzzer to get stuck on.
type byteSource struct {
	data []byte
	off  int
}

func (b *byteSource) Intn(n int) int {
	if n <= 1 {
		return 0
	}
	if b.off >= len(b.data) {
		return 0
	}
	v := int(b.data[b.off])
	b.off++
	return v % n
}

// u32 assembles a wide model/fault seed from four narrow draws, keeping
// full seed-space coverage even for byte-backed sources.
func u32(src source) uint64 {
	var v uint64
	for i := 0; i < 4; i++ {
		v = v<<8 | uint64(src.Intn(256))
	}
	return v
}

// Episode is one scheduled chaos cell: a simcheck matrix point the soak
// loop runs against its clean sequential reference.
type Episode struct {
	Index int
	Cell  simcheck.Cell
	// Checkpoint routes the episode through a mid-run checkpoint/restore
	// cut (simcheck.RunCellResumed): the run checkpoints periodically, is
	// rebuilt from the last published checkpoint, and the composed
	// fingerprint is held to the same sequential oracle. Optimistic
	// episodes only.
	Checkpoint bool
}

// memBoundOdds is the fraction of optimistic episodes that arm the
// fossil-collection pressure valve: 1 in memBoundOdds.
const memBoundOdds = 4

// ckptOdds is the fraction of optimistic episodes that soak the
// checkpoint/restore path: 1 in ckptOdds.
const ckptOdds = 8

// nextEpisode draws episode idx from src. Models rotate round-robin (so
// every model is exercised no matter how short the run); everything else
// is random: mostly-optimistic engines with an occasional conservative
// episode, 1–4 PEs over three KP granularities, a fault
// plan composing each kernel injector with probability 1/3 at a random
// aggressiveness, and a tight memory budget on a quarter of the optimistic
// episodes.
func nextEpisode(src source, idx int, models []string, mutation simcheck.Mutation, paranoid bool) Episode {
	ckpt := false
	model := models[idx%len(models)]
	pes := 1 + src.Intn(4)
	kps := []int{4, 8, 16}[src.Intn(3)]
	seed := u32(src) | 1
	c := simcheck.Cell{
		Model: model, Engine: core.KindOptimistic,
		PEs: pes, KPs: kps, Seed: seed,
		Paranoid: paranoid,
	}
	if src.Intn(8) == 0 && simcheck.SupportsEngine(model, core.KindConservative) {
		c.Engine = core.KindConservative
	}
	if c.Engine == core.KindOptimistic {
		f := &core.Faults{}
		armed := false
		for _, inj := range simcheck.Injectors() {
			if src.Intn(3) == 0 {
				inj.Arm(f, src.Intn(4))
				armed = true
			}
		}
		if armed {
			f.Seed = u32(src) | 1
			c.Faults = f
		}
		if src.Intn(memBoundOdds) == 0 {
			// Budgets this small sit well under the models' natural live
			// peaks, so the valve genuinely engages rather than idling.
			c.MaxLive = 4 + src.Intn(29)
		}
		// A slice of optimistic episodes exercise crash recovery: run with
		// periodic checkpoints, rebuild from the last one, and hold the
		// composed fingerprint to the same oracle.
		ckpt = src.Intn(ckptOdds) == 0
	}
	// The sequential reference is always clean; every non-sequential cell
	// carries the armed mutation (if any), mirroring Matrix semantics.
	c.Mutation = mutation
	return Episode{Index: idx, Cell: c, Checkpoint: ckpt}
}

// DecodeSchedule expands arbitrary bytes into a short bounded schedule —
// the fuzz target's entry point. The byte string is the entropy stream, so
// the fuzzer mutates schedules directly; exhausted input pads with zeros.
func DecodeSchedule(data []byte, models []string, paranoid bool) []Episode {
	src := &byteSource{data: data}
	n := 1 + src.Intn(2)
	eps := make([]Episode, 0, n)
	for i := 0; i < n; i++ {
		eps = append(eps, nextEpisode(src, i, models, simcheck.MutNone, paranoid))
	}
	return eps
}
