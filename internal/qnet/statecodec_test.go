package qnet

import (
	"reflect"
	"testing"

	"repro/internal/core"
)

// TestStateCodecRoundTrip fills every Station field and requires
// decode(encode(s)) to reproduce the struct exactly — the codec must cover
// everything trace.StateHash renders, or resumed fingerprints can never
// match.
func TestStateCodecRoundTrip(t *testing.T) {
	s := &Station{
		Busy:      true,
		queue:     []core.Time{1.25, 2.5, 2.5, 7},
		qBase:     1,
		qHead:     2,
		Arrivals:  11,
		Departs:   7,
		WaitTicks: 123456,
	}
	enc, err := codec{}.EncodeState(nil, s)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	got := &Station{}
	if err := (codec{}).DecodeState(enc, got); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !reflect.DeepEqual(got, s) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, s)
	}
	// Truncations must error, never panic.
	for i := 0; i < len(enc); i++ {
		if err := (codec{}).DecodeState(enc[:i], &Station{}); err == nil {
			t.Fatalf("state prefix of %d/%d bytes decoded", i, len(enc))
		}
	}
}
