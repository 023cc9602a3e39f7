package rng

import (
	"math"
	"testing"
	"testing/quick"
)

// TestReverseIsExactInverse: the defining property — after any mixture of
// draws, Reverse restores the exact generator state.
func TestReverseIsExactInverse(t *testing.T) {
	prop := func(stream uint16, warmup uint8, n uint8) bool {
		st := NewStream(uint64(stream))
		for i := 0; i < int(warmup); i++ {
			st.Uniform()
		}
		before := st.State()
		draws := st.Draws()
		for i := 0; i < int(n); i++ {
			switch i % 4 {
			case 0:
				st.Uniform()
			case 1:
				st.Integer(0, 100)
			case 2:
				st.Exponential(2.5)
			case 3:
				st.Bool(0.5)
			}
		}
		st.Reverse(uint64(n))
		return st.State() == before && st.Draws() == draws
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestReverseReplaysIdentically: after reversing, the stream must emit the
// exact same values again.
func TestReverseReplaysIdentically(t *testing.T) {
	st := NewStream(7)
	const n = 1000
	first := make([]float64, n)
	for i := range first {
		first[i] = st.Uniform()
	}
	st.Reverse(n)
	for i := range first {
		if v := st.Uniform(); v != first[i] {
			t.Fatalf("draw %d: replay %v != original %v", i, v, first[i])
		}
	}
}

// TestEachMethodIsOneDraw: the kernel's automatic rewind counts one step
// per public drawing call; every method must consume exactly one.
func TestEachMethodIsOneDraw(t *testing.T) {
	st := NewStream(1)
	checks := []func(){
		func() { st.Uniform() },
		func() { st.Integer(5, 9) },
		func() { st.Exponential(1) },
		func() { st.Bool(0.3) },
	}
	for i, fn := range checks {
		before := st.Draws()
		fn()
		if st.Draws() != before+1 {
			t.Fatalf("method %d consumed %d draws", i, st.Draws()-before)
		}
	}
}

// TestUniformRange: outputs lie strictly inside (0, 1).
func TestUniformRange(t *testing.T) {
	st := NewStream(3)
	for i := 0; i < 100000; i++ {
		u := st.Uniform()
		if u <= 0 || u >= 1 {
			t.Fatalf("draw %d out of range: %v", i, u)
		}
	}
}

// TestUniformMoments: sample mean and variance must be near 1/2 and 1/12.
func TestUniformMoments(t *testing.T) {
	st := NewStream(4)
	const n = 200000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		u := st.Uniform()
		sum += u
		sumSq += u * u
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean-0.5) > 0.005 {
		t.Errorf("mean = %v", mean)
	}
	if math.Abs(variance-1.0/12) > 0.005 {
		t.Errorf("variance = %v", variance)
	}
}

// TestIntegerBoundsProperty: Integer stays in [lo, hi] for arbitrary
// bounds, and hits both endpoints for small ranges.
func TestIntegerBoundsProperty(t *testing.T) {
	st := NewStream(5)
	prop := func(a int32, span uint8) bool {
		lo := int64(a)
		hi := lo + int64(span)
		v := st.Integer(lo, hi)
		return v >= lo && v <= hi
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
	seen := map[int64]bool{}
	for i := 0; i < 1000; i++ {
		seen[st.Integer(0, 3)] = true
	}
	for v := int64(0); v <= 3; v++ {
		if !seen[v] {
			t.Errorf("Integer(0,3) never produced %d", v)
		}
	}
}

// TestIntegerDegenerateRange: lo == hi must return lo and still consume a
// draw (so branch-free reverse counting works).
func TestIntegerDegenerateRange(t *testing.T) {
	st := NewStream(6)
	before := st.Draws()
	if v := st.Integer(42, 42); v != 42 {
		t.Fatalf("Integer(42,42) = %d", v)
	}
	if st.Draws() != before+1 {
		t.Fatal("degenerate Integer did not consume a draw")
	}
}

// TestIntegerPanicsOnBadRange guards the precondition.
func TestIntegerPanicsOnBadRange(t *testing.T) {
	st := NewStream(6)
	defer func() {
		if recover() == nil {
			t.Fatal("Integer(9, 5) did not panic")
		}
	}()
	st.Integer(9, 5)
}

// TestExponentialMoments: mean of Exponential(m) must be near m, and all
// values positive.
func TestExponentialMoments(t *testing.T) {
	st := NewStream(8)
	const n = 200000
	const mean = 3.5
	var sum float64
	for i := 0; i < n; i++ {
		v := st.Exponential(mean)
		if v <= 0 {
			t.Fatalf("non-positive exponential %v", v)
		}
		sum += v
	}
	if got := sum / n; math.Abs(got-mean) > 0.05 {
		t.Errorf("exponential mean = %v, want ~%v", got, mean)
	}
}

// TestBoolProbability: Bool(p) frequency must track p.
func TestBoolProbability(t *testing.T) {
	st := NewStream(9)
	for _, p := range []float64{0.1, 0.5, 0.9} {
		hits := 0
		const n = 100000
		for i := 0; i < n; i++ {
			if st.Bool(p) {
				hits++
			}
		}
		if got := float64(hits) / n; math.Abs(got-p) > 0.01 {
			t.Errorf("Bool(%v) frequency %v", p, got)
		}
	}
}

// TestStreamsDiffer: distinct stream IDs must produce distinct sequences.
func TestStreamsDiffer(t *testing.T) {
	a, b := NewStream(0), NewStream(1)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uniform() == b.Uniform() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("streams 0 and 1 agreed on %d of 100 draws", same)
	}
}

// TestStreamsReproducible: the same ID always yields the same sequence.
func TestStreamsReproducible(t *testing.T) {
	a, b := NewStream(77), NewStream(77)
	for i := 0; i < 1000; i++ {
		if a.Uniform() != b.Uniform() {
			t.Fatalf("stream 77 not reproducible at draw %d", i)
		}
	}
}

// TestSeedStreamResets: SeedStream must restore the exact initial state.
func TestSeedStreamResets(t *testing.T) {
	st := NewStream(13)
	first := st.Uniform()
	for i := 0; i < 500; i++ {
		st.Uniform()
	}
	st.SeedStream(13)
	if st.Draws() != 0 {
		t.Fatal("SeedStream did not reset the draw count")
	}
	if got := st.Uniform(); got != first {
		t.Fatalf("after reseed first draw %v != %v", got, first)
	}
}

// TestStreamJumpConsistency: stream k must equal stream 0 advanced by
// k * 2^41 steps. Verifying the full jump is infeasible; instead check the
// jump arithmetic directly against iterated squaring for small multiples.
func TestStreamJumpConsistency(t *testing.T) {
	// a^(2*spacing) computed two ways.
	for i := range clcg4M {
		twice := powMod(clcg4A[i], streamSpacing, clcg4M[i])
		twice = twice * twice % clcg4M[i]
		direct := powMod(powMod(clcg4A[i], streamSpacing, clcg4M[i]), 2, clcg4M[i])
		if twice != direct {
			t.Fatalf("component %d: jump arithmetic inconsistent", i)
		}
	}
	// And stream 2's state must equal stream 1 jumped once more.
	s1 := NewStream(1)
	s2 := NewStream(2)
	st := s1.State()
	for i := range st {
		jump := powMod(clcg4A[i], streamSpacing, clcg4M[i])
		st[i] = st[i] * jump % clcg4M[i]
	}
	if st != s2.State() {
		t.Fatal("stream 2 != stream 1 advanced by one spacing")
	}
}

// TestSeedNextChain: seeding each stream from its predecessor reaches the
// same state as seeding it by ID, over runs of consecutive IDs at the start
// of the ID space, in its middle and just below its top. SeedNext also
// clears the draw count of a stream that has drawn.
func TestSeedNextChain(t *testing.T) {
	for _, first := range []uint64{0, 1 << 63, 1<<64 - 10_001} {
		var prev, next, want Stream
		prev.SeedStream(first)
		for k := uint64(1); k <= 10_000; k++ {
			id := first + k
			next.Uniform()
			next.SeedNext(&prev)
			want.SeedStream(id)
			if next != want {
				t.Fatalf("chain from %d: stream %d is %v/%d, SeedStream gives %v/%d",
					first, id, next.State(), next.Draws(), want.State(), want.Draws())
			}
			prev = next
		}
	}
}

// TestPowMod checks the modular exponentiation helper against small cases.
func TestPowMod(t *testing.T) {
	cases := []struct{ b, e, m, want uint64 }{
		{2, 10, 1000, 24},
		{3, 0, 7, 1},
		{5, 1, 7, 5},
		{7, 3, 11, 2}, // 343 mod 11
		{10, 9, 6, 4}, // 10^9 mod 6
		{45991, 2147483645, 2147483647, powMod(45991, 2147483645, 2147483647)},
	}
	for _, c := range cases {
		if got := powMod(c.b, c.e, c.m); got != c.want {
			t.Errorf("powMod(%d,%d,%d) = %d, want %d", c.b, c.e, c.m, got, c.want)
		}
	}
	// Fermat inverse property: a * a^(m-2) ≡ 1 (mod m) for prime m.
	for i, b := range [4]uint64{b0, b1, b2, b3} {
		if b != powMod(clcg4A[i], clcg4M[i]-2, clcg4M[i]) || clcg4A[i]*b%clcg4M[i] != 1 {
			t.Errorf("component %d: inverse multiplier wrong", i)
		}
	}
}

// TestComponentStatesNeverZero: a zero component state would stick at zero
// forever; the moduli/seeds guarantee it never happens.
func TestComponentStatesNeverZero(t *testing.T) {
	st := NewStream(21)
	for i := 0; i < 50000; i++ {
		st.Uniform()
		for j, s := range st.State() {
			if s == 0 {
				t.Fatalf("component %d hit zero at draw %d", j, i)
			}
		}
	}
}

func BenchmarkUniform(b *testing.B) {
	st := NewStream(1)
	for i := 0; i < b.N; i++ {
		st.Uniform()
	}
}

func BenchmarkReverse(b *testing.B) {
	st := NewStream(1)
	for i := 0; i < b.N; i++ {
		st.Uniform()
		st.Reverse(1)
	}
}
