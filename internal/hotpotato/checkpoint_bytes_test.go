package hotpotato

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/replay"
)

// hashingSink hashes every checkpoint file the wrapped writer publishes, in
// publication order. The writer publishes in the background, so each file
// is read after Flush.
type hashingSink struct {
	inner *replay.CheckpointWriter
	dir   string
	n     int
	sum   []byte
	err   error
}

func (s *hashingSink) Checkpoint(cs *core.CheckpointState) error {
	if err := s.inner.Checkpoint(cs); err != nil {
		return err
	}
	if err := s.inner.Flush(); err != nil {
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
// cuts, a function of the seed alone. The writer fans the LP-state encode
// out over GOMAXPROCS workers, so the same digest must come out at one
// processor and at four.
func TestCheckpointBytesPinned(t *testing.T) {
	const (
		wantFiles = 7
		wantSum   = "72bde5ea206e359d2dfa85b59180e52addd0c97db5636096b7dbe31621831f66"
	)
	sums := map[int]string{}
	for _, procs := range []int{1, 4} {
		prev := runtime.GOMAXPROCS(procs)
		n, sum := pinnedCheckpointDigest(t)
		runtime.GOMAXPROCS(prev)
		if n != wantFiles || sum != wantSum {
			t.Fatalf("GOMAXPROCS=%d: checkpoint bytes changed: %d files, digest %s; want %d files, digest %s",
				procs, n, sum, wantFiles, wantSum)
		}
		sums[procs] = sum
	}
	if sums[1] != sums[4] {
		t.Fatalf("digest depends on the encode fan-out: %s at GOMAXPROCS=1, %s at 4", sums[1], sums[4])
	}
}

// pinnedCheckpointDigest runs TestCheckpointBytesPinned's scenario and
// returns the number of checkpoint files and their chained digest.
func pinnedCheckpointDigest(t *testing.T) (int, string) {
	t.Helper()
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
	return sink.n, hex.EncodeToString(sink.sum)
}
