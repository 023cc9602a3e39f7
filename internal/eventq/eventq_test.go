package eventq

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func intLess(a, b int) bool { return a < b }

func intKey(v int) float64 { return float64(v) }

// newIntLadder returns an empty ladder over ints in natural order.
func newIntLadder() *Ladder[int] { return NewLadder(intLess, intKey) }

// TestEmptyQueue: Min/Pop on empty must report absence, Len must be zero.
func TestEmptyQueue(t *testing.T) {
	q := newIntLadder()
	if _, ok := q.Min(); ok {
		t.Error("Min on empty returned ok")
	}
	if _, ok := q.Pop(); ok {
		t.Error("Pop on empty returned ok")
	}
	if q.Len() != 0 {
		t.Errorf("empty Len = %d", q.Len())
	}
}

// TestDrainIsSorted: pushing any slice and draining must yield it sorted.
func TestDrainIsSorted(t *testing.T) {
	prop := func(vals []int) bool {
		q := newIntLadder()
		for _, v := range vals {
			q.Push(v)
		}
		if q.Len() != len(vals) {
			return false
		}
		want := append([]int(nil), vals...)
		sort.Ints(want)
		for _, w := range want {
			got, ok := q.Pop()
			if !ok || got != w {
				return false
			}
		}
		_, ok := q.Pop()
		return !ok && q.Len() == 0
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestMinMatchesPop: Min must always preview exactly what Pop returns.
func TestMinMatchesPop(t *testing.T) {
	q := newIntLadder()
	r := rand.New(rand.NewSource(42))
	for i := 0; i < 2000; i++ {
		q.Push(r.Intn(1000))
		if r.Intn(3) == 0 {
			m, ok1 := q.Min()
			p, ok2 := q.Pop()
			if ok1 != ok2 || m != p {
				t.Fatalf("Min %v/%v != Pop %v/%v", m, ok1, p, ok2)
			}
		}
	}
}

// TestInterleavedAgainstReference drives the ladder through a long random
// push/pop sequence in lockstep with a sorted-slice oracle.
func TestInterleavedAgainstReference(t *testing.T) {
	q := newIntLadder()
	r := rand.New(rand.NewSource(7))
	var oracle []int
	for i := 0; i < 5000; i++ {
		if r.Intn(2) == 0 || len(oracle) == 0 {
			v := r.Intn(100)
			q.Push(v)
			oracle = append(oracle, v)
			sort.Ints(oracle)
		} else {
			got, ok := q.Pop()
			if !ok {
				t.Fatalf("Pop failed with %d in oracle", len(oracle))
			}
			if got != oracle[0] {
				t.Fatalf("Pop = %d, oracle %d", got, oracle[0])
			}
			oracle = oracle[1:]
		}
		if q.Len() != len(oracle) {
			t.Fatalf("Len %d != oracle %d", q.Len(), len(oracle))
		}
	}
}

// TestDuplicates: equal keys must all come out, ordered stably enough to
// all be equal.
func TestDuplicates(t *testing.T) {
	q := newIntLadder()
	for i := 0; i < 100; i++ {
		q.Push(5)
	}
	q.Push(3)
	q.Push(7)
	if v, _ := q.Pop(); v != 3 {
		t.Fatalf("first pop %d", v)
	}
	for i := 0; i < 100; i++ {
		if v, _ := q.Pop(); v != 5 {
			t.Fatalf("dup pop %d", v)
		}
	}
	if v, _ := q.Pop(); v != 7 {
		t.Fatalf("last pop %d", v)
	}
}

// TestMostlyIncreasingPattern mimics the PDES access pattern: timestamps
// mostly increase, with occasional re-insertions in the past (rollbacks).
func TestMostlyIncreasingPattern(t *testing.T) {
	q := newIntLadder()
	r := rand.New(rand.NewSource(99))
	now := 0
	var oracle []int
	for i := 0; i < 3000; i++ {
		if r.Intn(4) != 0 || len(oracle) == 0 {
			v := now + r.Intn(20)
			if r.Intn(20) == 0 { // straggler-style past insert
				v = now - r.Intn(5)
			}
			q.Push(v)
			oracle = append(oracle, v)
			sort.Ints(oracle)
		} else {
			got, _ := q.Pop()
			if got != oracle[0] {
				t.Fatalf("pop %d want %d", got, oracle[0])
			}
			now = got
			oracle = oracle[1:]
		}
	}
}

// TestPointerElements: the kernel stores *Event; ensure pointer elements
// and custom comparators work.
func TestPointerElements(t *testing.T) {
	type ev struct{ t float64 }
	q := NewLadder(func(a, b *ev) bool { return a.t < b.t }, func(e *ev) float64 { return e.t })
	q.Push(&ev{3})
	q.Push(&ev{1})
	q.Push(&ev{2})
	for _, w := range []float64{1, 2, 3} {
		got, ok := q.Pop()
		if !ok || got.t != w {
			t.Fatalf("got %v want %v", got, w)
		}
	}
}

// TestDrainHelper: BulkDrain must pop exactly the strict prefix below
// upTo, in order, and deliver in the same call an element fn pushes that
// sorts strictly after the one it was handed but still below the bound.
func TestDrainHelper(t *testing.T) {
	q := newIntLadder()
	for _, v := range []int{5, 1, 9, 3, 7, 3} {
		q.Push(v)
	}
	var got []int
	q.BulkDrain(6, func(v int) {
		got = append(got, v)
		if v == 1 {
			q.Push(4) // strictly after 1, still below the bound
		}
	})
	want := []int{1, 3, 3, 4, 5}
	if len(got) != len(want) {
		t.Fatalf("drained %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("drained %v, want %v", got, want)
		}
	}
	if q.Len() != 2 {
		t.Fatalf("%d left after drain, want 2", q.Len())
	}
	if v, _ := q.Pop(); v != 7 {
		t.Fatalf("post-drain pop %d, want 7", v)
	}
}

// TestEachVisitsAll: Each must visit every live element exactly once,
// including elements spread across the ladder's bands.
func TestEachVisitsAll(t *testing.T) {
	q := newIntLadder()
	r := rand.New(rand.NewSource(13))
	counts := make(map[int]int)
	for i := 0; i < 500; i++ {
		v := r.Intn(1 << 16)
		q.Push(v)
		counts[v]++
	}
	// Pop some so the ladder has a partially drained Bottom, then push
	// more so Top repopulates.
	for i := 0; i < 100; i++ {
		v, _ := q.Pop()
		counts[v]--
	}
	for i := 0; i < 50; i++ {
		v := (1 << 16) + r.Intn(1<<10)
		q.Push(v)
		counts[v]++
	}
	got := make(map[int]int)
	q.Each(func(v int) { got[v]++ })
	total := 0
	for v, c := range counts {
		if got[v] != c {
			t.Fatalf("Each saw %d of value %d, want %d", got[v], v, c)
		}
		total += c
	}
	if q.Len() != total {
		t.Fatalf("Len %d != %d", q.Len(), total)
	}
}

// TestLadderSteadyStateAllocs is the ladder's zero-allocation gate: after
// warmup grows every recycled array to its high-water mark, the hold
// pattern (Pop, then Push slightly ahead) must allocate nothing — rung
// structs, bucket arrays, Bottom, Top and the sort scratch are all reused
// in place.
func TestLadderSteadyStateAllocs(t *testing.T) {
	q := NewLadder(intLess, intKey)
	r := rand.New(rand.NewSource(3))
	now := 0
	const pop = 4096
	for i := 0; i < pop; i++ {
		q.Push(now + r.Intn(1<<14))
	}
	hold := func() {
		v, _ := q.Pop()
		now = v
		q.Push(now + 1 + r.Intn(1<<14))
	}
	// Warmup: many full ladder generations (Top transfer, rung spawn,
	// Bottom refill) so every array reaches steady-state capacity.
	for i := 0; i < 20*pop; i++ {
		hold()
	}
	if avg := testing.AllocsPerRun(10000, hold); avg != 0 {
		t.Fatalf("steady-state hold allocates %v allocs/op, want 0", avg)
	}
	// BulkDrain + refill cycles must be allocation-free too. The drain
	// callback is hoisted so the measurement sees only the queue's own
	// allocations, not the test's closure literal.
	drainFn := func(v int) {
		now = v
		q.Push(now + 1 + r.Intn(1<<14))
	}
	cycle := func() {
		bound := now + 1<<12
		q.BulkDrain(bound, drainFn)
		now = bound
	}
	for i := 0; i < 200; i++ {
		cycle()
	}
	if avg := testing.AllocsPerRun(200, cycle); avg != 0 {
		t.Fatalf("steady-state BulkDrain allocates %v allocs/op, want 0", avg)
	}
}

// TestLadderDeepPast exercises rollback-style inserts far below the
// drain frontier (landing in rung buckets and the sorted Bottom) against
// the oracle, including inserts during a partially drained Bottom.
func TestLadderDeepPast(t *testing.T) {
	q := NewLadder(intLess, intKey)
	r := rand.New(rand.NewSource(21))
	var oracle []int
	push := func(v int) {
		q.Push(v)
		oracle = append(oracle, v)
		sort.Ints(oracle)
	}
	for i := 0; i < 2000; i++ {
		push(r.Intn(1 << 20))
	}
	for i := 0; i < 6000; i++ {
		switch {
		case len(oracle) == 0 || r.Intn(3) > 0:
			got, _ := q.Pop()
			if got != oracle[0] {
				t.Fatalf("step %d: pop %d want %d", i, got, oracle[0])
			}
			oracle = oracle[1:]
		case r.Intn(2) == 0 && len(oracle) > 0:
			// Straggler far in the past relative to pending min.
			push(oracle[0] + r.Intn(64) - 64)
		default:
			push(1<<20 + r.Intn(1<<20))
		}
	}
}

// TestLadderInfinityKeys: the kernel's TimeInfinity projects to +Inf;
// the ladder must order such elements last without degenerate rungs.
func TestLadderInfinityKeys(t *testing.T) {
	type ev struct{ t float64 }
	less := func(a, b *ev) bool { return a.t < b.t }
	key := func(e *ev) float64 { return e.t }
	q := NewLadder(less, key)
	inf := 1e308 * 1.5
	for i := 0; i < 200; i++ {
		q.Push(&ev{t: float64(i % 37)})
		if i%10 == 0 {
			q.Push(&ev{t: inf})
		}
	}
	prev := -1.0
	n := q.Len()
	for i := 0; i < n; i++ {
		v, ok := q.Pop()
		if !ok {
			t.Fatalf("pop %d failed", i)
		}
		if v.t < prev {
			t.Fatalf("pop %d: %v after %v", i, v.t, prev)
		}
		prev = v.t
	}
}
