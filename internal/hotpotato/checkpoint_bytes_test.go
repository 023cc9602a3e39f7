package hotpotato

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/replay"
)

// hashingSink hashes every checkpoint file the wrapped writer publishes, in
// publication order.
type hashingSink struct {
	inner core.CheckpointSink
	dir   string
	n     int
	sum   []byte
	err   error
}

func (s *hashingSink) Checkpoint(cs *core.CheckpointState) error {
	if err := s.inner.Checkpoint(cs); err != nil {
		return err
	}
	s.n++
	// A fresh directory's writer numbers its files from 1.
	b, err := os.ReadFile(filepath.Join(s.dir, fmt.Sprintf("checkpoint-%06d.ckpt", s.n)))
	if err != nil {
		s.err = err
		return nil
	}
	h := sha256.New()
	h.Write(s.sum)
	h.Write(b)
	s.sum = h.Sum(nil)
	return nil
}

// TestCheckpointBytesPinned holds the checkpoint wire format to the bytes
// the original encoder wrote (fresh buffer per LP state and per frontier
// payload, stats enumerated through a pointer slice): the digest below was
// taken from that encoder. One PE makes the GVT rounds, and with them the
// cuts, a function of the seed alone.
func TestCheckpointBytesPinned(t *testing.T) {
	const (
		wantFiles = 7
		wantSum   = "72bde5ea206e359d2dfa85b59180e52addd0c97db5636096b7dbe31621831f66"
	)
	cfg := DefaultConfig(8)
	cfg.Steps = 40
	cfg.Seed = 3
	cfg.NumPEs = 1
	cfg.InjectorPercent = 50 // both injector and plain router states travel
	sim, _, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	w, err := replay.NewCheckpointWriter(dir, StateCodecName, CodecName, nil)
	if err != nil {
		t.Fatal(err)
	}
	sink := &hashingSink{inner: w, dir: dir}
	sim.SetCheckpoint(sink, 4)
	if _, err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if sink.err != nil {
		t.Fatal(sink.err)
	}
	if got := hex.EncodeToString(sink.sum); sink.n != wantFiles || got != wantSum {
		t.Fatalf("checkpoint bytes changed: %d files, digest %s; want %d files, digest %s",
			sink.n, got, wantFiles, wantSum)
	}
}
