package replay

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
)

// A minimal codec so writer-construction tests can run without a model.
type fakeCodec struct{}

func (fakeCodec) Name() string                                      { return "fake-payload" }
func (fakeCodec) Encode(dst []byte, data any) ([]byte, error)       { return dst, nil }
func (fakeCodec) Decode(src []byte) (any, error)                    { return nil, nil }
func (fakeCodec) StateName() string                                 { return "fake-state" }
func (fakeCodec) EncodeState(dst []byte, state any) ([]byte, error) { return dst, nil }
func (fakeCodec) DecodeState(src []byte, state any) error           { return nil }

func init() {
	RegisterCodec(fakeCodec{})
}

// sampleCheckpoint exercises every wire feature: optional trace digests,
// nil and non-nil state/payload bytes, a bootstrap-source frontier event
// (src == NoLP), and ties broken at every level of the event order.
func sampleCheckpoint() *Checkpoint {
	return &Checkpoint{
		StateCodec: "m-state",
		Codec:      "m",
		GVT:        12.5,
		Committed:  4096,
		NumLPs:     3,
		HasTrace:   true,
		TraceLen:   4096,
		TraceHash:  0xdeadbeefcafe,
		LPHashes:   []uint64{11, 22, 33},
		LPs: []CheckpointLP{
			{State: []byte{1, 2, 3}, RNG: [4]uint64{9, 8, 7, 6}, Draws: 42, SendSeq: 7},
			{State: nil, RNG: [4]uint64{1, 2, 3, 4}, Draws: 0, SendSeq: 0},
			{State: []byte{0xff}, RNG: [4]uint64{5, 5, 5, 5}, Draws: 1, SendSeq: 2},
		},
		Frontier: []CheckpointEvent{
			{T: 12.5, Dst: 0, Src: core.NoLP, Seq: 3, Data: []byte{1}},
			{T: 12.5, Dst: 1, Src: 2, Seq: 0, Data: nil},
			{T: 13, Dst: 0, Src: 0, Seq: 9, Data: []byte{2, 3}},
		},
	}
}

func TestCheckpointCodecRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		name string
		cp   *Checkpoint
	}{
		{"full", sampleCheckpoint()},
		{"no-trace", func() *Checkpoint {
			cp := sampleCheckpoint()
			cp.HasTrace = false
			cp.TraceLen, cp.TraceHash, cp.LPHashes = 0, 0, nil
			return cp
		}()},
		{"empty-frontier", func() *Checkpoint {
			cp := sampleCheckpoint()
			cp.Frontier = nil
			return cp
		}()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			enc := EncodeCheckpoint(tc.cp)
			got, err := DecodeCheckpoint(enc)
			if err != nil {
				t.Fatalf("decode: %v", err)
			}
			if !reflect.DeepEqual(got, tc.cp) {
				t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, tc.cp)
			}
			if re := EncodeCheckpoint(got); !bytes.Equal(re, enc) {
				t.Fatalf("re-encode is not canonical: %d vs %d bytes", len(re), len(enc))
			}
		})
	}
}

// TestCheckpointDecodeTruncated cuts a valid checkpoint at every prefix
// length: each must fail with an error, never a panic — a torn file must
// always be detected.
func TestCheckpointDecodeTruncated(t *testing.T) {
	enc := EncodeCheckpoint(sampleCheckpoint())
	for i := 0; i < len(enc); i++ {
		if _, err := DecodeCheckpoint(enc[:i]); err == nil {
			t.Fatalf("prefix of %d/%d bytes decoded without error", i, len(enc))
		}
	}
}

// TestCheckpointDecodeFlipped flips every byte of a valid checkpoint in
// turn. Each flip must either be rejected or — if it happens to still
// parse — decode to something that re-encodes exactly to the flipped
// input (the canonicality contract, same as the fuzz target's).
func TestCheckpointDecodeFlipped(t *testing.T) {
	enc := EncodeCheckpoint(sampleCheckpoint())
	buf := make([]byte, len(enc))
	for i := 0; i < len(enc); i++ {
		copy(buf, enc)
		buf[i] ^= 0xff
		cp, err := DecodeCheckpoint(buf)
		if err != nil {
			continue
		}
		if re := EncodeCheckpoint(cp); !bytes.Equal(re, buf) {
			t.Fatalf("byte %d flipped: accepted but not canonical", i)
		}
	}
}

func TestCheckpointDecodeRejects(t *testing.T) {
	base := sampleCheckpoint()
	mutate := func(fn func(cp *Checkpoint)) []byte {
		cp := sampleCheckpoint()
		fn(cp)
		return EncodeCheckpoint(cp)
	}
	for _, tc := range []struct {
		name string
		buf  []byte
	}{
		{"empty", nil},
		{"bad-magic", []byte("GTWR")},
		{"frontier-below-gvt", mutate(func(cp *Checkpoint) {
			cp.Frontier[0].T = cp.GVT - 1
		})},
		{"frontier-out-of-order", mutate(func(cp *Checkpoint) {
			cp.Frontier[0], cp.Frontier[2] = cp.Frontier[2], cp.Frontier[0]
		})},
		{"frontier-dst-out-of-range", mutate(func(cp *Checkpoint) {
			cp.Frontier[2].Dst = core.LPID(cp.NumLPs)
		})},
		{"frontier-src-out-of-range", mutate(func(cp *Checkpoint) {
			cp.Frontier[2].Src = -2
		})},
		{"lp-count-mismatch", mutate(func(cp *Checkpoint) {
			cp.LPs = cp.LPs[:2]
		})},
		{"lp-hash-count-mismatch", mutate(func(cp *Checkpoint) {
			cp.LPHashes = cp.LPHashes[:2]
		})},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := DecodeCheckpoint(tc.buf); err == nil {
				t.Fatal("malformed checkpoint decoded without error")
			}
		})
	}
	_ = base
}

// TestCheckpointDecodeRejectsNonMinimalVarint: a header frame whose
// NumLPs field is padded to two bytes, under a valid CRC, must be
// rejected, since re-encoding it would not reproduce the input.
func TestCheckpointDecodeRejectsNonMinimalVarint(t *testing.T) {
	cp := sampleCheckpoint()
	withNumLPs := func(numLPs ...byte) []byte {
		p := []byte(ckptMagic)
		p = binary.AppendUvarint(p, ckptVersion)
		p = appendString(p, cp.StateCodec)
		p = appendString(p, cp.Codec)
		p = binary.LittleEndian.AppendUint64(p, math.Float64bits(float64(cp.GVT)))
		p = binary.AppendUvarint(p, uint64(cp.Committed))
		p = append(p, numLPs...)
		dst := appendFrame(nil, ckptFrameHeader, p)
		dst, _ = appendCkptTrace(dst, nil, cp)
		dst, _ = appendCkptLPs(dst, nil, cp)
		dst, _ = appendCkptFrontier(dst, nil, cp)
		return appendFrame(dst, ckptFrameEnd, nil)
	}
	minimal := withNumLPs(byte(cp.NumLPs))
	if !bytes.Equal(minimal, EncodeCheckpoint(cp)) {
		t.Fatal("hand-built checkpoint differs from EncodeCheckpoint")
	}
	if got, err := DecodeCheckpoint(withNumLPs(byte(cp.NumLPs)|0x80, 0x00)); err == nil {
		t.Fatalf("padded varint accepted (NumLPs=%d)", got.NumLPs)
	}
}

// TestCheckpointCodecPairMismatch: a checkpoint's state codec must be its
// codec's own. Both the writer and the restore reject any other pairing.
func TestCheckpointCodecPairMismatch(t *testing.T) {
	if _, err := NewCheckpointWriter(t.TempDir(), "other-state", "fake-payload", nil); err == nil {
		t.Fatal("writer accepted a state codec that is not the codec's own")
	}
	if _, err := NewCheckpointWriter(t.TempDir(), "fake-state", "fake-payload", nil); err != nil {
		t.Fatalf("writer rejected the registered pair: %v", err)
	}
	sim, err := core.New(core.Config{NumLPs: 3, EndTime: 1})
	if err != nil {
		t.Fatal(err)
	}
	cp := sampleCheckpoint()
	cp.StateCodec, cp.Codec = "other-state", "fake-payload"
	if err := RestoreCheckpoint(cp, sim, nil); err == nil {
		t.Fatal("restore accepted a state codec that is not the codec's own")
	}
	cp.StateCodec = "fake-state"
	if err := RestoreCheckpoint(cp, sim, nil); err != nil {
		t.Fatalf("restore rejected the registered pair: %v", err)
	}
}

func TestManifestRoundTrip(t *testing.T) {
	enc := EncodeManifest("checkpoint-000004.ckpt", 0xfeedface)
	m, err := decodeManifest(enc)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if m.file != "checkpoint-000004.ckpt" || m.sum != 0xfeedface {
		t.Fatalf("round trip mismatch: %+v", m)
	}
	for i := 0; i < len(enc); i++ {
		if _, err := decodeManifest(enc[:i]); err == nil {
			t.Fatalf("manifest prefix of %d bytes decoded", i)
		}
		buf := append([]byte(nil), enc...)
		buf[i] ^= 0xff
		if _, err := decodeManifest(buf); err == nil {
			t.Fatalf("manifest with byte %d flipped decoded", i)
		}
	}
	// A manifest must not be able to point the loader outside its directory.
	for _, name := range []string{"", ".", "..", "../evil", "sub/evil"} {
		if _, err := decodeManifest(EncodeManifest(name, 1)); err == nil {
			t.Fatalf("manifest naming %q decoded", name)
		}
	}
}

// publishRaw drives the writer's publication path with pre-encoded bytes,
// so torn-state tests can stage crashes without registered model codecs.
func publishRaw(t *testing.T, w *CheckpointWriter, cp *Checkpoint) {
	t.Helper()
	if err := w.publish(EncodeCheckpoint(cp)); err != nil {
		t.Fatalf("publish: %v", err)
	}
}

// TestLoadCheckpointTornStates verifies the crash-atomicity contract at
// the loader: for every way a publication can be interrupted, LoadCheckpoint
// returns the previous complete checkpoint (or ErrNoCheckpoint before the
// first), never a torn one.
func TestLoadCheckpointTornStates(t *testing.T) {
	cp1 := sampleCheckpoint()
	cp2 := sampleCheckpoint()
	cp2.GVT, cp2.Committed = 20, 8192
	for i := range cp2.Frontier {
		cp2.Frontier[i].T += 8
	}

	// The error must stay ErrNoCheckpoint to errors.Is and name the
	// directory it looked in.
	noCheckpoint := func(t *testing.T, dir string) {
		t.Helper()
		_, err := LoadCheckpoint(dir)
		if !errors.Is(err, ErrNoCheckpoint) {
			t.Fatalf("got %v, want ErrNoCheckpoint", err)
		}
		if !strings.Contains(err.Error(), dir) {
			t.Fatalf("error %q does not name the directory %s", err, dir)
		}
	}
	t.Run("empty-dir", func(t *testing.T) { noCheckpoint(t, t.TempDir()) })
	t.Run("missing-dir", func(t *testing.T) { noCheckpoint(t, filepath.Join(t.TempDir(), "nonesuch")) })
	t.Run("published", func(t *testing.T) {
		dir := t.TempDir()
		publishRaw(t, &CheckpointWriter{dir: dir, seq: 1}, cp1)
		got, err := LoadCheckpoint(dir)
		if err != nil {
			t.Fatalf("load: %v", err)
		}
		if !reflect.DeepEqual(got, cp1) {
			t.Fatal("loaded checkpoint differs from published one")
		}
	})
	t.Run("torn-tmp-write", func(t *testing.T) {
		// Crash during the second checkpoint's tmp write: a partial .tmp
		// file exists, the manifest still names checkpoint 1.
		dir := t.TempDir()
		w := &CheckpointWriter{dir: dir, seq: 1}
		publishRaw(t, w, cp1)
		enc2 := EncodeCheckpoint(cp2)
		torn := filepath.Join(dir, "checkpoint-000002.ckpt.tmp")
		if err := os.WriteFile(torn, enc2[:len(enc2)/2], 0o644); err != nil {
			t.Fatal(err)
		}
		got, err := LoadCheckpoint(dir)
		if err != nil {
			t.Fatalf("load: %v", err)
		}
		if got.Committed != cp1.Committed {
			t.Fatal("torn tmp write did not recover to the previous checkpoint")
		}
		// A fresh writer over the directory sweeps the debris and numbers
		// past the published file.
		w2, err := NewCheckpointWriter(dir, "fake-state", "fake-payload", nil)
		if err != nil {
			t.Fatalf("new writer over crashed dir: %v", err)
		}
		if _, err := os.Stat(torn); !errors.Is(err, os.ErrNotExist) {
			t.Fatal("new writer did not sweep tmp debris")
		}
		if w2.seq != 2 || w2.lastFile != "checkpoint-000001.ckpt" {
			t.Fatalf("writer resumed at seq=%d lastFile=%q", w2.seq, w2.lastFile)
		}
		publishRaw(t, w2, cp2)
		if got, err := LoadCheckpoint(dir); err != nil || got.Committed != cp2.Committed {
			t.Fatalf("publish after recovery: got %v, err %v", got, err)
		}
		if _, err := os.Stat(filepath.Join(dir, "checkpoint-000001.ckpt")); !errors.Is(err, os.ErrNotExist) {
			t.Fatal("superseded checkpoint not deleted after recovery publish")
		}
	})
	t.Run("torn-manifest-swap", func(t *testing.T) {
		// Crash between the new checkpoint's rename and the manifest swap:
		// checkpoint 2 is complete on disk but the manifest still names
		// checkpoint 1 — the loader must return checkpoint 1.
		dir := t.TempDir()
		publishRaw(t, &CheckpointWriter{dir: dir, seq: 1}, cp1)
		if err := os.WriteFile(filepath.Join(dir, "checkpoint-000002.ckpt"), EncodeCheckpoint(cp2), 0o644); err != nil {
			t.Fatal(err)
		}
		got, err := LoadCheckpoint(dir)
		if err != nil {
			t.Fatalf("load: %v", err)
		}
		if got.Committed != cp1.Committed || got.GVT != cp1.GVT {
			t.Fatal("torn manifest swap did not recover to the previous checkpoint")
		}
	})
	t.Run("corrupt-checkpoint", func(t *testing.T) {
		dir := t.TempDir()
		publishRaw(t, &CheckpointWriter{dir: dir, seq: 1}, cp1)
		path := filepath.Join(dir, "checkpoint-000001.ckpt")
		buf, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		buf[len(buf)/2] ^= 0xff
		if err := os.WriteFile(path, buf, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := LoadCheckpoint(dir); err == nil || errors.Is(err, ErrNoCheckpoint) {
			t.Fatalf("corrupt checkpoint loaded: err=%v", err)
		}
	})
	t.Run("manifest-names-missing-file", func(t *testing.T) {
		dir := t.TempDir()
		publishRaw(t, &CheckpointWriter{dir: dir, seq: 1}, cp1)
		if err := os.Remove(filepath.Join(dir, "checkpoint-000001.ckpt")); err != nil {
			t.Fatal(err)
		}
		if _, err := LoadCheckpoint(dir); err == nil || errors.Is(err, ErrNoCheckpoint) {
			t.Fatalf("dangling manifest loaded: err=%v", err)
		}
	})
	t.Run("supersede-deletes-previous", func(t *testing.T) {
		dir := t.TempDir()
		w := &CheckpointWriter{dir: dir, seq: 1}
		publishRaw(t, w, cp1)
		publishRaw(t, w, cp2)
		got, err := LoadCheckpoint(dir)
		if err != nil {
			t.Fatalf("load: %v", err)
		}
		if got.Committed != cp2.Committed {
			t.Fatal("second publication did not supersede the first")
		}
		if _, err := os.Stat(filepath.Join(dir, "checkpoint-000001.ckpt")); !errors.Is(err, os.ErrNotExist) {
			t.Fatal("superseded checkpoint file was not deleted")
		}
	})
}

// FuzzCheckpointCodec holds DecodeCheckpoint to the same contract as the
// log codec's fuzz target: arbitrary input must decode or error — never
// panic, never an outsized allocation — and anything accepted must be
// canonical and a fixpoint.
func FuzzCheckpointCodec(f *testing.F) {
	full := EncodeCheckpoint(sampleCheckpoint())
	f.Add(full)
	f.Add(full[:len(full)/2])
	noTrace := sampleCheckpoint()
	noTrace.HasTrace = false
	noTrace.TraceLen, noTrace.TraceHash, noTrace.LPHashes = 0, 0, nil
	f.Add(EncodeCheckpoint(noTrace))
	f.Add([]byte(nil))
	f.Add([]byte("GTWC"))
	f.Fuzz(func(t *testing.T, data []byte) {
		cp, err := DecodeCheckpoint(data)
		if err != nil {
			return
		}
		enc := EncodeCheckpoint(cp)
		if !bytes.Equal(enc, data) {
			t.Fatalf("accepted input is not canonical: %d in, %d re-encoded", len(data), len(enc))
		}
		cp2, err := DecodeCheckpoint(enc)
		if err != nil {
			t.Fatalf("re-encoded checkpoint fails to decode: %v", err)
		}
		if !bytes.Equal(EncodeCheckpoint(cp2), enc) {
			t.Fatal("encode/decode is not a fixpoint")
		}
	})
}
