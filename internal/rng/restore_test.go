package rng

import "testing"

// TestRestoreRoundTrip proves Restore reproduces a captured stream exactly:
// the restored stream emits the same sequence the original would have.
func TestRestoreRoundTrip(t *testing.T) {
	src := NewStream(3)
	for i := 0; i < 100; i++ {
		src.Uniform()
	}
	state, draws := src.State(), src.Draws()

	var want [32]float64
	for i := range want {
		want[i] = src.Uniform()
	}

	dst := NewStream(99) // deliberately different starting point
	if err := dst.Restore(state, draws); err != nil {
		t.Fatalf("Restore: %v", err)
	}
	if dst.Draws() != draws {
		t.Fatalf("Draws after restore = %d, want %d", dst.Draws(), draws)
	}
	for i := range want {
		if got := dst.Uniform(); got != want[i] {
			t.Fatalf("draw %d after restore = %v, want %v", i, got, want[i])
		}
	}
}

// TestRestoreRoundTripsExtremes: the components are stored as uint32, so
// State must hand back exactly what Restore took at both ends of every
// component's range, [1, m_i-1], and a restored stream must keep stepping
// like the reference loop from there.
func TestRestoreRoundTripsExtremes(t *testing.T) {
	for _, state := range [][4]uint64{
		{1, 1, 1, 1},
		{clcg4M[0] - 1, clcg4M[1] - 1, clcg4M[2] - 1, clcg4M[3] - 1},
		{1, clcg4M[1] - 1, 1, clcg4M[3] - 1},
	} {
		st := NewStream(0)
		if err := st.Restore(state, 7); err != nil {
			t.Fatalf("Restore(%v): %v", state, err)
		}
		if st.State() != state || st.Draws() != 7 {
			t.Fatalf("Restore(%v) then State = %v draws %d", state, st.State(), st.Draws())
		}
		ref := &refStream{s: state}
		for i := 0; i < 4; i++ {
			if got, want := st.Uniform(), ref.step(); got != want || st.State() != ref.s {
				t.Fatalf("from %v draw %d: %v state %v, reference %v state %v", state, i, got, st.State(), want, ref.s)
			}
		}
		st.Reverse(4)
		if st.State() != state {
			t.Fatalf("from %v: reversed to %v", state, st.State())
		}
	}
}

// TestRestoreRejectsBadState proves the range validation: zero components
// and components at or above the modulus must be rejected, leaving the
// stream untouched. The values past 2^32 would truncate to 0 or to a valid
// residue in the uint32 storage, so they prove validation sees the full
// 64-bit input.
func TestRestoreRejectsBadState(t *testing.T) {
	for i := 0; i < 4; i++ {
		for _, bad := range []uint64{0, clcg4M[i], clcg4M[i] + 17, 1 << 32, 1<<32 | 5, ^uint64(0)} {
			st := NewStream(1)
			before := st.State()
			s := [4]uint64{1, 1, 1, 1}
			s[i] = bad
			if err := st.Restore(s, 5); err == nil {
				t.Fatalf("Restore accepted component %d = %d", i, bad)
			}
			if st.State() != before || st.Draws() != 0 {
				t.Fatalf("failed Restore mutated the stream")
			}
		}
	}
}
