package eventq

import (
	"sort"
	"testing"
)

// fuzzStep is one decoded operation: push the (key, id) element, or pop.
type fuzzStep struct {
	pop bool
	key int
}

// decodeFuzzOps turns fuzz input into an operation sequence. Each byte is
// one operation: low bit selects push/pop, the remaining bits are the
// pushed key — deliberately only 7 bits so ties are common and the
// tiebreak contracts actually get exercised.
func decodeFuzzOps(data []byte) []fuzzStep {
	ops := make([]fuzzStep, len(data))
	for i, b := range data {
		ops[i] = fuzzStep{pop: b&1 == 1, key: int(b >> 1)}
	}
	return ops
}

// runFuzzOps drives one queue through ops, tagging every push with a
// sequence id so tie order is observable, and returns the full pop
// stream (including the final drain).
func runFuzzOps(t *testing.T, kind string, ops []fuzzStep) []keyed {
	t.Helper()
	q, err := New[keyed](kind, keyedLess, keyedKey)
	if err != nil {
		t.Fatal(err)
	}
	var out []keyed
	next := 0
	for _, op := range ops {
		if op.pop {
			if v, ok := q.Pop(); ok {
				out = append(out, v)
			}
		} else {
			q.Push(keyed{key: op.key, id: next})
			next++
		}
	}
	for {
		v, ok := q.Pop()
		if !ok {
			return out
		}
		out = append(out, v)
	}
}

// FuzzQueuesDifferential drives every registered queue kind through the
// same operation sequence and demands, per kind:
//
//  1. agreement with a sorted-slice reference model on the popped key
//     stream (and on emptiness at every step);
//  2. drain-order determinism — a second identical run must produce a
//     bitwise-identical pop stream, ids included;
//  3. the kind's documented tiebreak contract: the ladder pops equal
//     keys in insertion order (FIFO ids), heap's equal-key order
//     is only required to be deterministic (covered by 2).
func FuzzQueuesDifferential(f *testing.F) {
	f.Add([]byte{2, 4, 6, 1, 3, 5})
	f.Add([]byte{0, 0, 0, 1, 1, 1})
	f.Add([]byte{255, 254, 253, 252, 251})
	f.Add([]byte{8, 8, 8, 8, 8, 8, 8, 8, 1, 1, 8, 8, 1, 1})
	fifoKinds := map[string]bool{"ladder": true}
	f.Fuzz(func(t *testing.T, data []byte) {
		ops := decodeFuzzOps(data)

		// Reference model: keys only, sorted ascending.
		var refStream []int
		var oracle []int
		for _, op := range ops {
			if op.pop {
				if len(oracle) > 0 {
					refStream = append(refStream, oracle[0])
					oracle = oracle[1:]
				}
			} else {
				oracle = append(oracle, op.key)
				sort.Ints(oracle)
			}
		}
		refStream = append(refStream, oracle...)

		for _, kind := range Kinds() {
			got := runFuzzOps(t, kind, ops)
			if len(got) != len(refStream) {
				t.Fatalf("%s: popped %d elements, reference %d", kind, len(got), len(refStream))
			}
			maxID := make(map[int]int) // key -> highest id popped at that key
			for i, v := range got {
				if v.key != refStream[i] {
					t.Fatalf("%s: pop %d key %d, reference %d", kind, i, v.key, refStream[i])
				}
				if fifoKinds[kind] {
					// FIFO among equals: a pop whose id is below an id
					// already popped at the same key means a later-pushed
					// equal overtook an earlier one (ids are assigned in
					// push order, so the earlier element was necessarily
					// still queued when the later one popped).
					if prev, seen := maxID[v.key]; seen && v.id < prev {
						t.Fatalf("%s: tie order violated at pop %d: id %d after id %d at key %d",
							kind, i, v.id, prev, v.key)
					}
				}
				if v.id > maxID[v.key] {
					maxID[v.key] = v.id
				}
			}
			// Determinism: an identical second run must match exactly.
			again := runFuzzOps(t, kind, ops)
			for i := range got {
				if got[i] != again[i] {
					t.Fatalf("%s: nondeterministic drain at %d: %+v vs %+v", kind, i, got[i], again[i])
				}
			}
		}
	})
}
