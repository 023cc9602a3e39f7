package simcheck

import "testing"

// FuzzSoakSchedule treats arbitrary bytes as a soak schedule: every byte
// string must decode to a valid bounded schedule whose episodes run
// without panics, without tripping a live invariant sweep, and without
// diverging from the sequential oracle. The corpus seeds cover the
// schedule space's corners (empty input, conservative draws, dense fault
// compositions, memory-bounded cells); the fuzzer mutates from there.
func FuzzSoakSchedule(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0})
	f.Add([]byte{0, 1, 3, 2, 0xff, 0xee, 0xdd, 0xcc, 7, 0, 0, 0})
	f.Add([]byte{1, 1, 2, 1, 9, 9, 9, 9, 3, 0, 0, 0, 0, 0, 0, 0, 42, 42, 42, 42, 0, 1, 2, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		// hotpotato and phold only: qnet episodes are the slowest and the
		// schedule space under test is the generator's, not the models'.
		eps := DecodeSchedule(data, []string{"hotpotato", "phold"}, true)
		if len(eps) == 0 {
			t.Fatal("empty schedule decoded")
		}
		rep := Check(Cases(eps...), "", nil)
		if !rep.OK() {
			t.Fatalf("decoded schedule diverged:\n%v", rep.Divergences)
		}
	})
}
