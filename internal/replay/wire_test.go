package replay

import (
	"bytes"
	"encoding/binary"
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
)

// sampleLog returns a fully-populated synthetic log touching every wire
// feature: faults, negative deltas (injection times and destinations that
// go down as well as up), empty and non-empty payloads, rollback flags.
func sampleLog() *Log {
	return &Log{
		Spec: Spec{
			Model: "hotpotato", Codec: "hotpotato.v1", Queue: "ladder",
			Mutation: "broken-reverse",
			PEs:      4, KPs: 16, BatchSize: 8, GVTInterval: 2,
			Seed:    0xDEADBEEF,
			EndTime: 30,
			Faults: &core.Faults{
				Seed: 7, RollbackEvery: 2, RollbackDepth: 4, GVTDelay: 1,
				MailBurst: 4, ThrottlePEs: 1, ThrottleBatch: 1, ShuffleMail: true,
			},
		},
		Inject: []Injection{
			{T: 0.5, Dst: 9, Data: []byte{1, 2, 3}},
			{T: 0.25, Dst: 3, Data: []byte{0xFF}}, // time and dst both decrease
			{T: 2, Dst: 60, Data: []byte{9, 9, 9, 9}},
		},
		PEs: []PELog{
			{PE: 0, Mail: []MailBatch{{Src: 1, N: 5}, {Src: 3, N: 1}}},
			{PE: 2, Rollbacks: []Rollback{
				{KP: 4, Events: 12},
				{KP: 5, Events: 1, Secondary: true},
				{KP: 4, Events: 3, Forced: true},
			}},
		},
		Rounds: []Round{
			{GVT: 0.125, TraceHash: 0x1111111111111111},
			{GVT: 0.75, TraceHash: 0x2222222222222222},
			{GVT: 29.5, TraceHash: 0x3333333333333333},
		},
		Final: Fingerprint{Committed: 15919, TraceLen: 15919,
			TraceHash: 0x4444444444444444, StateHash: 0x5555555555555555},
	}
}

func TestWireRoundTrip(t *testing.T) {
	lg := sampleLog()
	enc := Encode(lg)
	got, err := Decode(enc)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !reflect.DeepEqual(lg, got) {
		t.Fatalf("round trip lost data:\nin:  %+v\nout: %+v", lg, got)
	}
	// Canonical form: re-encoding the decoded log reproduces the bytes.
	if !bytes.Equal(enc, Encode(got)) {
		t.Fatal("re-encoding the decoded log produced different bytes")
	}
}

func TestWireRoundTripMinimal(t *testing.T) {
	// The smallest meaningful log: no injections, PEs, rounds or faults.
	lg := &Log{Spec: Spec{Model: "m", Codec: "c", Queue: "heap", EndTime: 1}}
	enc := Encode(lg)
	got, err := Decode(enc)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !bytes.Equal(enc, Encode(got)) {
		t.Fatal("minimal log is not canonical under re-encoding")
	}
}

// TestWireTruncation: every proper prefix of a valid log must fail to
// decode — cleanly, never by panicking.
func TestWireTruncation(t *testing.T) {
	enc := Encode(sampleLog())
	for n := 0; n < len(enc); n++ {
		if _, err := Decode(enc[:n]); err == nil {
			t.Fatalf("prefix of %d/%d bytes decoded successfully", n, len(enc))
		}
	}
}

// TestWireCorruption flips every single byte in turn; the CRC framing (or a
// downstream validity check) must reject every corrupted variant. A
// one-byte flip may legally truncate-or-grow a frame length, so the only
// unacceptable outcomes are a panic or a silently accepted log whose
// re-encoding differs from the corrupted input.
func TestWireCorruption(t *testing.T) {
	enc := Encode(sampleLog())
	mut := make([]byte, len(enc))
	for i := range enc {
		copy(mut, enc)
		mut[i] ^= 0x41
		lg, err := Decode(mut)
		if err != nil {
			continue
		}
		// Accepted: it must then be a canonical log (a flip that produced
		// an equivalent valid encoding would re-encode identically).
		if !bytes.Equal(Encode(lg), mut) {
			t.Fatalf("byte %d flipped: decode accepted a non-canonical log", i)
		}
	}
}

func TestWireBadMagicAndVersion(t *testing.T) {
	lg := sampleLog()
	enc := Encode(lg)
	// The header payload starts after [type][len uvarint]; magic is its
	// first four bytes.
	bad := append([]byte(nil), enc...)
	bad[2] = 'X'
	if _, err := Decode(bad); err == nil || !strings.Contains(err.Error(), "CRC") {
		t.Fatalf("corrupted magic not caught by CRC: %v", err)
	}
	// A wrong version with a VALID CRC must fail on the version check:
	// rebuild the header frame by hand with version 99.
	p := []byte(logMagic)
	p = appendVarintHelper(p, 99)
	frame := appendFrame(nil, frameHeader, p)
	if _, err := Decode(frame); err == nil || !strings.Contains(err.Error(), "version") {
		t.Fatalf("unsupported version not rejected: %v", err)
	}
	// Bad magic with a valid CRC likewise.
	p2 := []byte("NOPE")
	p2 = appendVarintHelper(p2, logVersion)
	frame2 := appendFrame(nil, frameHeader, p2)
	if _, err := Decode(frame2); err == nil || !strings.Contains(err.Error(), "magic") {
		t.Fatalf("bad magic not rejected: %v", err)
	}
}

func appendVarintHelper(dst []byte, v uint64) []byte {
	for v >= 0x80 {
		dst = append(dst, byte(v)|0x80)
		v >>= 7
	}
	return append(dst, byte(v))
}

func TestWireRejectsNaNTime(t *testing.T) {
	lg := sampleLog()
	lg.Spec.EndTime = core.Time(math.NaN())
	if _, err := Decode(Encode(lg)); err == nil {
		t.Error("NaN EndTime decoded without error")
	}
	lg = sampleLog()
	lg.Rounds[1].GVT = core.Time(math.NaN())
	if _, err := Decode(Encode(lg)); err == nil {
		t.Error("NaN round GVT decoded without error")
	}
}

func TestWireRejectsStructuralAbuse(t *testing.T) {
	lg := sampleLog()
	enc := Encode(lg)

	// Trailing garbage after the end frame.
	if _, err := Decode(append(append([]byte(nil), enc...), 0)); err == nil {
		t.Error("trailing bytes accepted")
	}
	// A log that is all zeros, or empty.
	if _, err := Decode(nil); err == nil {
		t.Error("empty input accepted")
	}
	if _, err := Decode(make([]byte, 64)); err == nil {
		t.Error("zero input accepted")
	}
	// Absurd count with a tiny payload must not allocate or succeed: a
	// hand-built inject frame claiming 2^40 injections.
	p := appendVarintHelper(nil, 1<<40)
	abuse := appendHeader(nil, lg.Spec)
	abuse = appendFrame(abuse, frameInject, p)
	if _, err := Decode(abuse); err == nil {
		t.Error("absurd injection count accepted")
	}
	// PE frames out of order.
	bad := sampleLog()
	bad.PEs[1].PE = 0 // duplicate of PEs[0]
	if _, err := Decode(Encode(bad)); err == nil {
		t.Error("out-of-order pe frames accepted")
	}
}

// TestWireRejectsNonMinimalVarint: a header whose PEs field is the
// two-byte encoding 0x81 0x00 of 1, under a valid CRC, must be rejected.
// Accepting it would break canonicality — Encode writes the one-byte form
// — and the CRC hides the padding from the fuzzer.
func TestWireRejectsNonMinimalVarint(t *testing.T) {
	logWithPEs := func(pes ...byte) []byte {
		p := []byte(logMagic)
		p = appendVarintHelper(p, logVersion)
		for _, s := range []string{"m", "c", "heap", ""} {
			p = appendString(p, s)
		}
		p = append(p, pes...)
		p = append(p, 0, 0, 0, 0) // KPs, BatchSize, GVTInterval, Seed
		p = binary.LittleEndian.AppendUint64(p, math.Float64bits(1))
		p = append(p, 0) // no faults
		buf := appendFrame(nil, frameHeader, p)
		buf = appendInject(buf, nil)
		buf = appendRounds(buf, nil)
		buf = appendFinal(buf, Fingerprint{})
		return appendFrame(buf, frameEnd, nil)
	}
	minimal := logWithPEs(0x01)
	lg, err := Decode(minimal)
	if err != nil || lg.Spec.PEs != 1 || !bytes.Equal(Encode(lg), minimal) {
		t.Fatalf("minimal header does not round-trip: %v", err)
	}
	if lg, err := Decode(logWithPEs(0x81, 0x00)); err == nil {
		t.Fatalf("padded varint accepted (PEs=%d); re-encodes to %d bytes, not %d",
			lg.Spec.PEs, len(Encode(lg)), len(minimal)+1)
	}
}

// TestWireRejectsNonCanonicalFrameOrder: Encode writes every frame, in
// one order, so a log that omits the inject or rounds frame or reorders
// frames would re-encode differently and must be rejected.
func TestWireRejectsNonCanonicalFrameOrder(t *testing.T) {
	lg := sampleLog()
	hdr, inj := appendHeader(nil, lg.Spec), appendInject(nil, lg.Inject)
	var pes []byte
	for _, pl := range lg.PEs {
		pes = appendPE(pes, pl)
	}
	rounds, final, end := appendRounds(nil, lg.Rounds), appendFinal(nil, lg.Final), appendFrame(nil, frameEnd, nil)
	cat := func(frames ...[]byte) []byte { return bytes.Join(frames, nil) }
	if !bytes.Equal(cat(hdr, inj, pes, rounds, final, end), Encode(lg)) {
		t.Fatal("hand-assembled log differs from Encode")
	}
	for name, buf := range map[string][]byte{
		"no inject or rounds":  cat(hdr, pes, final, end),
		"rounds before inject": cat(hdr, rounds, inj, pes, final, end),
		"final before pe":      cat(hdr, inj, final, pes, rounds, end),
	} {
		if _, err := Decode(buf); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}
