package simcheck

// The soak schedule: the second case source beside Smoke/Full. A soak is a
// deterministic function of its seed. Every knob an episode turns —
// engine, PE/KP shape, model seed, fault composition, memory budget — is
// drawn from a single bounded entropy source, so the same seed replays the
// same schedule byte for byte, and the fuzz target can substitute
// arbitrary bytes for the RNG and explore the exact same schedule space.

import (
	"math/rand"
	"time"

	"repro/internal/core"
)

// Soak is a seeded chaos schedule: an open-ended run of episodes rotating
// models and engines, composing kernel fault injectors pairwise and
// deeper, and squeezing the fossil-collection pressure valve. Each episode
// is a Case that Check holds to its clean sequential reference.
type Soak struct {
	// Seed determines the entire schedule. Same seed, same episodes, same
	// report fingerprint (absent genuine nondeterminism bugs — which is
	// the point).
	Seed uint64
	// Episodes caps the run by episode count; 0 means uncapped.
	Episodes int
	// Wall caps the run by wall clock; 0 means uncapped. The budget is
	// checked between episodes, so the last episode may overrun it. With
	// neither cap set, the schedule is a 16-episode smoke.
	Wall time.Duration
	// Models to rotate through; empty means all bundled models.
	Models []string
	// Mutation arms a seeded bug in every non-sequential cell (self-test:
	// a soak that cannot fail is not testing anything).
	Mutation Mutation
	// Paranoid arms the kernel's in-run invariant sweeps on every
	// optimistic episode — the live-invariant mode; soaking without it
	// only checks end states.
	Paranoid bool
}

// Schedule returns the soak's case source. The wall budget runs from this
// call.
func (s Soak) Schedule() func() (Case, bool) {
	models := s.Models
	if len(models) == 0 {
		models = ModelNames()
	}
	episodes, wall := s.Episodes, s.Wall
	if episodes <= 0 && wall <= 0 {
		episodes = 16
	}
	src := rand.New(rand.NewSource(int64(s.Seed)))
	start := time.Now()
	i := 0
	return func() (Case, bool) {
		if episodes > 0 && i >= episodes {
			return Case{}, false
		}
		if wall > 0 && i > 0 && time.Since(start) >= wall {
			return Case{}, false
		}
		k := nextEpisode(src, i, models, s.Mutation, s.Paranoid)
		i++
		return k, true
	}
}

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
func nextEpisode(src source, idx int, models []string, mutation Mutation, paranoid bool) Case {
	ckpt := false
	model := models[idx%len(models)]
	pes := 1 + src.Intn(4)
	kps := []int{4, 8, 16}[src.Intn(3)]
	seed := u32(src) | 1
	c := Cell{
		Model: model, Engine: core.KindOptimistic,
		PEs: pes, KPs: kps, Seed: seed,
		Paranoid: paranoid,
	}
	if src.Intn(8) == 0 && SupportsEngine(model, core.KindConservative) {
		c.Engine = core.KindConservative
	}
	if c.Engine == core.KindOptimistic {
		f := &core.Faults{}
		armed := false
		for _, inj := range Injectors() {
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
	return Case{Index: idx, Cell: c, Checkpoint: ckpt}
}

// DecodeSchedule expands arbitrary bytes into a short bounded schedule —
// the fuzz target's entry point. The byte string is the entropy stream, so
// the fuzzer mutates schedules directly; exhausted input pads with zeros.
func DecodeSchedule(data []byte, models []string, paranoid bool) []Case {
	src := &byteSource{data: data}
	n := 1 + src.Intn(2)
	eps := make([]Case, 0, n)
	for i := 0; i < n; i++ {
		eps = append(eps, nextEpisode(src, i, models, MutNone, paranoid))
	}
	return eps
}
