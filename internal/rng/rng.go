// Package rng implements the reversible pseudo-random number generator used
// by the Time Warp kernel, modelled on ROSS's CLCG4 generator
// (L'Ecuyer & Andres, "A random number generator based on the combination
// of four LCGs", Mathematics and Computers in Simulation, 1997).
//
// Reversibility is the property the kernel depends on: every draw advances
// each of the four component LCGs by exactly one multiplication, and
// Reverse undoes draws exactly by multiplying with the precomputed modular
// inverse of each multiplier. A logical process that is rolled back k draws
// therefore returns to the precise generator state it had before, which is
// what makes reverse computation (rather than state saving) possible.
//
// Every public drawing method (Uniform, Integer, Exponential, Bool) consumes
// exactly one underlying generator step, so the kernel can undo a handler's
// randomness by counting its draws and calling Reverse with that count.
package rng

import (
	"fmt"
	"math"
)

// Component moduli m, multipliers a and inverse multipliers b of the
// combined generator, with b = a^(m-2) mod m (Fermat inverse; every modulus
// is prime). They are constants, not table entries, because step and unstep
// reduce modulo them on every draw: a constant modulus compiles to a
// multiply and shift, a loaded one to a hardware divide.
const (
	m0, a0, b0 = 2147483647, 45991, 1441196816
	m1, a1, b1 = 2147483543, 207707, 1463744518
	m2, a2, b2 = 2147483423, 138556, 499766181
	m3, a3, b3 = 2147483323, 49689, 660421676
)

// The same moduli and multipliers as tables, for the code off the draw path
// (seeding, restore validation).
var clcg4M = [4]uint64{m0, m1, m2, m3}
var clcg4A = [4]uint64{a0, a1, a2, a3}

// powMod returns base^exp mod m using binary exponentiation. All operands
// are below 2^31, so intermediate products fit comfortably in a uint64.
func powMod(base, exp, m uint64) uint64 {
	result := uint64(1)
	base %= m
	for exp > 0 {
		if exp&1 == 1 {
			result = result * base % m
		}
		base = base * base % m
		exp >>= 1
	}
	return result
}

// defaultSeed is the canonical initial state of stream 0, taken from the
// L'Ecuyer–Andres reference implementation.
var defaultSeed = [4]uint64{11111111, 22222222, 33333333, 44444444}

// streamSpacing is the per-stream jump distance. Adjacent streams are
// 2^41 steps apart, far beyond any single simulation's consumption, so
// per-LP streams never overlap.
const streamSpacing = uint64(1) << 41

// clcg4Jump[i] is a[i]^streamSpacing mod m[i], the multiplier that moves
// component i one stream ahead. It is worked out once: seeding a stream is
// most of what building a simulation costs per LP, and this power is four
// fifths of seeding.
var clcg4Jump = func() (jump [4]uint64) {
	for i := range jump {
		jump[i] = powMod(clcg4A[i], streamSpacing, clcg4M[i])
	}
	return jump
}()

// Stream is one reversible random stream. Each logical process in a
// simulation owns its own Stream so that event-processing order across
// processors cannot perturb the random sequence any LP observes.
//
// A Stream is not safe for concurrent use; the kernel guarantees each LP is
// only ever touched by one processor at a time.
//
// Each component is held as a uint32: it is a residue below its modulus,
// and every modulus is below 2^31. That keeps a Stream at 24 bytes, small
// enough to sit inline in the kernel's LP record.
type Stream struct {
	s     [4]uint32
	draws uint64 // net draws since creation (draws - reversals)
}

// NewStream returns the stream with the given identifier. Stream i starts
// 2^41*i steps into the base CLCG4 sequence; the jump is computed in
// O(log spacing) time with modular exponentiation.
func NewStream(id uint64) *Stream {
	st := &Stream{}
	st.SeedStream(id)
	return st
}

// SeedStream resets the stream to the initial state of stream id.
func (st *Stream) SeedStream(id uint64) {
	for i := range st.s {
		// a^(id * spacing) mod m, computed as (a^spacing)^id to keep the
		// exponent within uint64 without overflow concerns.
		jump := powMod(clcg4Jump[i], id, clcg4M[i])
		st.s[i] = uint32(defaultSeed[i] * jump % clcg4M[i])
	}
	st.draws = 0
}

// SeedNext resets the stream to the initial state of the stream after
// prev's. When prev holds the initial state of stream id, st ends exactly as
// SeedStream(id+1) would leave it (for id+1 < 2^64), at one multiplication
// per component instead of a modular power, so streams seeded in ID order
// cost O(1) each. st and prev may be the same stream.
func (st *Stream) SeedNext(prev *Stream) {
	for i := range st.s {
		st.s[i] = uint32(uint64(prev.s[i]) * clcg4Jump[i] % clcg4M[i])
	}
	st.draws = 0
}

// State returns the four component states; useful for checkpointing and in
// tests that assert exact reversal.
func (st *Stream) State() [4]uint64 {
	return [4]uint64{uint64(st.s[0]), uint64(st.s[1]), uint64(st.s[2]), uint64(st.s[3])}
}

// Draws returns the net number of draws consumed so far.
func (st *Stream) Draws() uint64 { return st.draws }

// step advances every component LCG by one multiplication and returns the
// combined uniform variate in (0, 1).
func (st *Stream) step() float64 {
	s0 := a0 * uint64(st.s[0]) % m0
	s1 := a1 * uint64(st.s[1]) % m1
	s2 := a2 * uint64(st.s[2]) % m2
	s3 := a3 * uint64(st.s[3]) % m3
	st.s = [4]uint32{uint32(s0), uint32(s1), uint32(s2), uint32(s3)}
	// The alternating-sign combination, each term state/modulus.
	u := float64(s0) * (1.0 / m0)
	u -= float64(s1) * (1.0 / m1)
	u += float64(s2) * (1.0 / m2)
	u -= float64(s3) * (1.0 / m3)
	// Fold the combination into (0,1). u is in (-2, 2) before folding.
	u -= math.Floor(u)
	if u <= 0 {
		// Guard against an exact 0 after folding; the component states are
		// never zero, so nudging to the smallest representable step keeps
		// the output strictly positive (required by Exponential).
		u = 0.5 * (1.0 / m0)
	}
	st.draws++
	return u
}

// unstep moves every component LCG back by one multiplication.
func (st *Stream) unstep() {
	st.s = [4]uint32{
		uint32(b0 * uint64(st.s[0]) % m0),
		uint32(b1 * uint64(st.s[1]) % m1),
		uint32(b2 * uint64(st.s[2]) % m2),
		uint32(b3 * uint64(st.s[3]) % m3),
	}
	st.draws--
}

// Uniform returns a uniform variate in (0, 1), consuming one draw.
func (st *Stream) Uniform() float64 { return st.step() }

// Integer returns a uniform integer in [lo, hi] inclusive, consuming one
// draw. It panics if hi < lo.
func (st *Stream) Integer(lo, hi int64) int64 {
	if hi < lo {
		panic("rng: Integer called with hi < lo")
	}
	span := uint64(hi-lo) + 1
	v := int64(st.step() * float64(span))
	if v >= int64(span) { // defensive: floating point edge at u -> 1
		v = int64(span) - 1
	}
	return lo + v
}

// Exponential returns an exponential variate with the given mean,
// consuming one draw.
func (st *Stream) Exponential(mean float64) float64 {
	return -mean * math.Log(st.step())
}

// Bool returns true with probability p, consuming one draw.
func (st *Stream) Bool(p float64) bool { return st.step() < p }

// Restore sets the stream to a previously captured (State, Draws) pair, as
// used by checkpoint resume. Each component state must lie in [1, m_i-1] —
// 0 is an absorbing state the generator can never reach, and anything at or
// above the modulus is not a residue at all — so a corrupted checkpoint is
// rejected here rather than silently degrading the stream.
func (st *Stream) Restore(state [4]uint64, draws uint64) error {
	for i, s := range state {
		if s == 0 || s >= clcg4M[i] {
			return fmt.Errorf("rng: component %d state %d outside [1, %d]", i, s, clcg4M[i]-1)
		}
	}
	for i, s := range state {
		st.s[i] = uint32(s)
	}
	st.draws = draws
	return nil
}

// Reverse undoes the last n draws exactly. After Reverse(n) the stream
// produces the same sequence it produced after the corresponding earlier
// point. Reversing more draws than were ever taken walks the underlying
// sequence backwards past the seed, which is well defined but almost
// certainly a caller bug; the kernel never does it.
func (st *Stream) Reverse(n uint64) {
	for i := uint64(0); i < n; i++ {
		st.unstep()
	}
}
