package hotpotato

import (
	"reflect"
	"testing"
)

// TestStateCodecRoundTrip fills every Router field with distinct values and
// requires decode(encode(r)) to reproduce the struct exactly — the codec
// must cover everything trace.StateHash renders, or resumed fingerprints
// can never match.
func TestStateCodecRoundTrip(t *testing.T) {
	r := &Router{
		claim:      [4]int64{-1, 7, 8, 9},
		links:      0xb,
		isInjector: true,
		queue:      []int64{3, 5, 5, 9},
		qBase:      2,
		qHead:      4,
	}
	// Give every stats field a distinct nonzero value via the wire-order
	// enumeration itself.
	var fields [numStatsFields]*int64
	statsFields(&r.stats, &fields)
	for i, f := range fields {
		*f = int64(100 + i)
	}
	// ... except the two that must sum to the queue head.
	r.stats.Injected, r.stats.Discarded = 3, 1
	enc, err := codec{}.EncodeState(nil, r)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	got := &Router{}
	if err := (codec{}).DecodeState(enc, got); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !reflect.DeepEqual(got, r) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, r)
	}
	// Truncations must error, never panic.
	for i := 0; i < len(enc); i++ {
		if err := (codec{}).DecodeState(enc[:i], &Router{}); err == nil {
			t.Fatalf("state prefix of %d/%d bytes decoded", i, len(enc))
		}
	}
	// A queue head that disagrees with the injection counts is rejected.
	r.stats.Discarded++
	bad, err := codec{}.EncodeState(nil, r)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	if err := (codec{}).DecodeState(bad, &Router{}); err == nil {
		t.Fatal("state with qHead != Injected+Discarded decoded")
	}
}
