package rng

import (
	"math"
	"testing"
)

// refStream is the generator as first written: one loop over the four
// components, moduli and multipliers loaded from tables, the inverse
// multipliers and 1/m computed at start-up. It is kept as the definition
// the unrolled step and unstep must agree with bit for bit.
type refStream struct {
	s [4]uint64
}

var (
	refB    [4]uint64
	refNorm [4]float64
)

func init() {
	for i := range clcg4M {
		refB[i] = powMod(clcg4A[i], clcg4M[i]-2, clcg4M[i])
		refNorm[i] = 1.0 / float64(clcg4M[i])
	}
}

func (st *refStream) step() float64 {
	u := 0.0
	sign := 1.0
	for i := range st.s {
		st.s[i] = clcg4A[i] * st.s[i] % clcg4M[i]
		u += sign * float64(st.s[i]) * refNorm[i]
		sign = -sign
	}
	u -= math.Floor(u)
	if u <= 0 {
		u = 0.5 * refNorm[0]
	}
	return u
}

func (st *refStream) unstep() {
	for i := range st.s {
		st.s[i] = refB[i] * st.s[i] % clcg4M[i]
	}
}

// TestStepMatchesReference draws 10^6 variates on several streams and
// requires value and state to equal the reference loop's at every draw, then
// walks all of them back the same way.
func TestStepMatchesReference(t *testing.T) {
	const draws = 1_000_000
	for _, id := range []uint64{0, 1, 2, 1023, 0xD1B54A32D192ED03, ^uint64(0)} {
		st := NewStream(id)
		ref := &refStream{s: st.State()}
		start := st.State()
		for i := 0; i < draws; i++ {
			got, want := st.Uniform(), ref.step()
			if math.Float64bits(got) != math.Float64bits(want) || st.State() != ref.s {
				t.Fatalf("stream %d draw %d: got %v state %v, reference %v state %v",
					id, i, got, st.State(), want, ref.s)
			}
		}
		for i := draws; i > 0; i-- {
			st.Reverse(1)
			ref.unstep()
			if st.State() != ref.s {
				t.Fatalf("stream %d reversing draw %d: state %v, reference %v", id, i, st.State(), ref.s)
			}
		}
		if st.State() != start || st.Draws() != 0 {
			t.Fatalf("stream %d: round trip ended at %v after %d net draws, started at %v",
				id, st.State(), st.Draws(), start)
		}
	}
}

// TestFoldGuardMatchesReference: the guard value for an exact zero after
// folding is the same constant the reference computes at run time.
func TestFoldGuardMatchesReference(t *testing.T) {
	if got, want := 0.5*(1.0/m0), 0.5*refNorm[0]; got != want {
		t.Fatalf("fold guard %v, reference %v", got, want)
	}
}
