package eventq

import (
	"math/rand"
	"sort"
	"testing"
)

// keyed is an element whose ordering ignores its identity, so tests can
// observe what a queue does with ties.
type keyed struct {
	key int
	id  int
}

func keyedLess(a, b keyed) bool { return a.key < b.key }

func keyedKey(k keyed) float64 { return float64(k.key) }

// TestLadderTieFIFO pins the ladder's tie contract: elements comparing
// equal pop in insertion order. The first half interleaves ties with
// other keys and a partial drain; the second half forces the equal run to
// straddle the ladder's band boundaries — some ties drain out of a
// sorted Bottom while later equal arrivals land in the Top band — which
// is exactly where a calendar structure would lose FIFO if bucket
// appends or the refill sort were unstable.
func TestLadderTieFIFO(t *testing.T) {
	q := NewLadder(keyedLess, keyedKey)
	next := 0
	push := func(key int) {
		q.Push(keyed{key: key, id: next})
		next++
	}
	push(9)
	push(5)
	push(5)
	push(3)
	push(5)
	if v, _ := q.Pop(); v.key != 3 {
		t.Fatalf("first pop key = %d, want 3", v.key)
	}
	push(5)
	push(5)
	wantIDs := []int{1, 2, 4, 5, 6} // insertion order among the key-5 ties
	for i, want := range wantIDs {
		v, ok := q.Pop()
		if !ok || v.key != 5 {
			t.Fatalf("pop %d: got (%+v, %v), want a key-5 element", i, v, ok)
		}
		if v.id != want {
			t.Fatalf("tie order violated at pop %d: got id %d, want %d", i, v.id, want)
		}
	}
	if v, ok := q.Pop(); !ok || v.key != 9 {
		t.Fatalf("last pop = (%+v, %v), want key 9", v, ok)
	}

	// Band-boundary half: heavy ties at few keys, interleaved pops, so
	// equal runs cross Top→rung→Bottom transfers. Compare against a
	// stable-sort oracle (equal keys in push order).
	rng := rand.New(rand.NewSource(11))
	var oracle []keyed
	for i := 0; i < 4000; i++ {
		if rng.Intn(3) > 0 || len(oracle) == 0 {
			e := keyed{key: rng.Intn(6), id: next}
			next++
			q.Push(e)
			// Insert after all equal keys: FIFO oracle.
			pos := len(oracle)
			for pos > 0 && oracle[pos-1].key > e.key {
				pos--
			}
			oracle = append(oracle, keyed{})
			copy(oracle[pos+1:], oracle[pos:])
			oracle[pos] = e
		} else {
			got, ok := q.Pop()
			if !ok {
				t.Fatalf("step %d: pop failed with %d queued", i, len(oracle))
			}
			if got != oracle[0] {
				t.Fatalf("step %d: pop %+v, oracle %+v", i, got, oracle[0])
			}
			oracle = oracle[1:]
		}
	}
}

// TestLadderTopBoundaryEqualKeys is the regression test for an equal-key
// split across the Top boundary. After transferTop moves the band down,
// a later arrival whose key equals the old band maximum must follow its
// equal-key peers down into Bottom/rungs — if it stays in Top, the two
// containers are never compared under less and the earlier (but
// less-greater) element drains first. The kernel hit exactly this: two
// events at one timestamp, tiebroken by LP id, popped in the wrong order.
func TestLadderTopBoundaryEqualKeys(t *testing.T) {
	// Total order: key ascending, then id ascending.
	totalLess := func(a, b keyed) bool {
		if a.key != b.key {
			return a.key < b.key
		}
		return a.id < b.id
	}
	q := NewLadder(totalLess, keyedKey)
	q.Push(keyed{key: 5, id: 2})
	q.Push(keyed{key: 1, id: 0})
	// First pop triggers transferTop: {1,0} and {5,2} sort into Bottom and
	// the Top boundary becomes the old band max, key 5.
	if v, _ := q.Pop(); v != (keyed{key: 1, id: 0}) {
		t.Fatalf("first pop = %+v, want {1 0}", v)
	}
	// A new key-5 arrival that sorts before the resident {5,2}.
	q.Push(keyed{key: 5, id: 1})
	for _, want := range []keyed{{key: 5, id: 1}, {key: 5, id: 2}} {
		v, ok := q.Pop()
		if !ok || v != want {
			t.Fatalf("pop = (%+v, %v), want %+v", v, ok, want)
		}
	}
}

// TestQueuesAgreeUnderTotalOrder: with a total order (the kernel's case —
// ties cannot occur) the ladder must drain exactly as a stable sort of
// the same pushes does, so the kernel's committed schedule is the order
// alone. The schedule runs under two orders: id-ascending (later pushes
// sort later among equal float keys) and id-descending (later pushes sort
// EARLIER — the kernel's straggler shape, where an event arriving later
// must still drain first; this direction is what catches equal-key
// elements split across the ladder's internal bands).
func TestQueuesAgreeUnderTotalOrder(t *testing.T) {
	orders := map[string]func(a, b keyed) bool{
		"idAsc": func(a, b keyed) bool {
			if a.key != b.key {
				return a.key < b.key
			}
			return a.id < b.id
		},
		"idDesc": func(a, b keyed) bool {
			if a.key != b.key {
				return a.key < b.key
			}
			return a.id > b.id
		},
	}
	for name, totalLess := range orders {
		t.Run(name, func(t *testing.T) {
			q := NewLadder(totalLess, keyedKey)
			var ref []keyed
			popRef := func() keyed {
				sort.SliceStable(ref, func(i, j int) bool { return totalLess(ref[i], ref[j]) })
				v := ref[0]
				ref = ref[1:]
				return v
			}
			rng := rand.New(rand.NewSource(7))
			pops := 0
			check := func() {
				want := popRef()
				got, ok := q.Pop()
				if !ok || got != want {
					t.Fatalf("pop %d = (%+v, %v), reference %+v", pops, got, ok, want)
				}
				pops++
			}
			for i := 0; i < 1500; i++ {
				e := keyed{key: rng.Intn(16), id: i}
				q.Push(e)
				ref = append(ref, e)
				if rng.Intn(4) == 0 {
					check()
				}
			}
			for len(ref) > 0 {
				check()
			}
			if _, ok := q.Pop(); ok {
				t.Fatal("ladder holds elements the reference drained")
			}
		})
	}
}
