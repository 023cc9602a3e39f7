package eventq

import (
	"sort"
	"testing"
)

// Operations a fuzz byte decodes to. Pushes take half the byte space so
// the queue actually fills; the remaining bits are a key, deliberately
// only 5 bits wide so ties are common and the FIFO contract is exercised.
const (
	fuzzPop   = 4
	fuzzMin   = 5
	fuzzEach  = 6
	fuzzDrain = 7
)

// refQueue is the reference model: a slice kept sorted by (key, id).
// Ids are issued in push order, so this is exactly the ladder's contract
// — order by key, FIFO among equal keys.
type refQueue []keyed

func (r *refQueue) push(v keyed) {
	s := *r
	i := sort.Search(len(s), func(i int) bool {
		return s[i].key > v.key || (s[i].key == v.key && s[i].id > v.id)
	})
	s = append(s, keyed{})
	copy(s[i+1:], s[i:])
	s[i] = v
	*r = s
}

func (r *refQueue) pop() keyed {
	v := (*r)[0]
	*r = (*r)[1:]
	return v
}

// drainPush is what the BulkDrain callback pushes on being handed v: every
// other delivery sends one element 1-4 keys after it, strictly after v as
// the BulkDrain contract requires, so chains below the bound are
// delivered within the same call.
func drainPush(v keyed) (int, bool) {
	return v.key + 1 + v.id%4, v.id%2 == 0
}

// FuzzQueuesDifferential drives the ladder through a fuzzed sequence of
// the kernel's whole operation set — Push, Min, Pop, Len, Each and
// BulkDrain with a callback that pushes — in lockstep with refQueue, and
// demands agreement after every operation: the exact element (key and id,
// so FIFO tie order too) from Min, Pop and each BulkDrain delivery, the
// count from Len, and the multiset from Each.
func FuzzQueuesDifferential(f *testing.F) {
	f.Add([]byte{2, 4, 6, 1, 3, 5})
	f.Add([]byte{0, 0, 0, 1, 1, 1})
	f.Add([]byte{255, 254, 253, 252, 251})
	f.Add([]byte{8, 8, 8, 8, 8, 8, 8, 8, 1, 1, 8, 8, 1, 1})
	// Drains at, below and above resident keys, with callback pushes.
	f.Add([]byte{8, 16, 24, 8, 15, 31, 7, 4, 12, 23, 6, 63, 8, 8, 255})
	f.Fuzz(func(t *testing.T, data []byte) {
		q := NewLadder(keyedLess, keyedKey)
		var ref refQueue
		next := 0
		push := func(key int) {
			v := keyed{key: key, id: next}
			next++
			q.Push(v)
			ref.push(v)
		}
		for step, b := range data {
			key := int(b >> 3)
			switch op := int(b & 7); op {
			case fuzzPop:
				got, ok := q.Pop()
				if ok != (len(ref) > 0) {
					t.Fatalf("step %d: Pop ok=%v with %d in reference", step, ok, len(ref))
				}
				if ok {
					if want := ref.pop(); got != want {
						t.Fatalf("step %d: Pop %+v, reference %+v", step, got, want)
					}
				}
			case fuzzMin:
				got, ok := q.Min()
				if ok != (len(ref) > 0) {
					t.Fatalf("step %d: Min ok=%v with %d in reference", step, ok, len(ref))
				}
				if ok && got != ref[0] {
					t.Fatalf("step %d: Min %+v, reference %+v", step, got, ref[0])
				}
			case fuzzEach:
				var seen []keyed
				q.Each(func(v keyed) { seen = append(seen, v) })
				sort.Slice(seen, func(i, j int) bool {
					return seen[i].key < seen[j].key || (seen[i].key == seen[j].key && seen[i].id < seen[j].id)
				})
				if len(seen) != len(ref) || q.Len() != len(ref) {
					t.Fatalf("step %d: Each saw %d, Len %d, reference %d", step, len(seen), q.Len(), len(ref))
				}
				for i := range seen {
					if seen[i] != ref[i] {
						t.Fatalf("step %d: Each multiset differs at %d: %+v vs %+v", step, i, seen[i], ref[i])
					}
				}
			case fuzzDrain:
				n := 0
				q.BulkDrain(keyed{key: key}, func(v keyed) {
					if len(ref) == 0 || ref[0].key >= key {
						t.Fatalf("step %d: BulkDrain(%d) delivered %+v past the reference prefix", step, key, v)
					}
					if want := ref.pop(); v != want {
						t.Fatalf("step %d: BulkDrain(%d) delivery %d = %+v, reference %+v", step, key, n, v, want)
					}
					n++
					if k, ok := drainPush(v); ok {
						push(k)
					}
				})
				if len(ref) > 0 && ref[0].key < key {
					t.Fatalf("step %d: BulkDrain(%d) stopped with %+v still below the bound", step, key, ref[0])
				}
			default:
				push(key)
			}
			if q.Len() != len(ref) {
				t.Fatalf("step %d: Len %d, reference %d", step, q.Len(), len(ref))
			}
		}
		for len(ref) > 0 {
			if got, _ := q.Pop(); got != ref[0] {
				t.Fatalf("final drain: Pop %+v, reference %+v", got, ref[0])
			}
			ref.pop()
		}
		if _, ok := q.Pop(); ok {
			t.Fatal("final drain: ladder holds elements the reference drained")
		}
	})
}
