package hotpotato

import (
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"syscall"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/replay"
)

// forwardingSink forwards Checkpoint and Flush to a CheckpointWriter and
// remembers the last cut it saw. With breakDir set it replaces the
// checkpoint directory with a regular file once the first capture is
// published, so every later publication fails with ENOTDIR — whoever runs
// the test, root included.
type forwardingSink struct {
	w        *replay.CheckpointWriter
	dir      string
	breakDir bool

	n         int
	last      core.Time
	committed int64
	setupErr  error
}

func (s *forwardingSink) Checkpoint(cs *core.CheckpointState) error {
	s.n++
	s.last, s.committed = cs.GVT, cs.Committed
	if err := s.w.Checkpoint(cs); err != nil {
		return err
	}
	if s.breakDir && s.n == 1 {
		if err := s.w.Flush(); err != nil {
			s.setupErr = err
			return nil
		}
		if err := os.RemoveAll(s.dir); err != nil {
			s.setupErr = err
			return nil
		}
		s.setupErr = os.WriteFile(s.dir, nil, 0o644)
	}
	return nil
}

func (s *forwardingSink) Flush() error { return s.w.Flush() }

// runForwarding builds an 8×8 torus on pes PEs checkpointing every
// `every` rounds through a forwardingSink over a fresh directory, runs it
// with a hang guard, and returns the sink, Run's error and the goroutine
// count from before Run.
func runForwarding(t *testing.T, pes, every int, breakDir bool) (*forwardingSink, error, int) {
	t.Helper()
	cfg := DefaultConfig(8)
	cfg.Steps = 40
	cfg.Seed = 3
	cfg.NumPEs = pes
	sim, _, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(t.TempDir(), "ckpt")
	w, err := replay.NewCheckpointWriter(dir, StateCodecName, CodecName, nil)
	if err != nil {
		t.Fatal(err)
	}
	sink := &forwardingSink{w: w, dir: dir, breakDir: breakDir}
	sim.SetCheckpoint(sink, every)
	before := runtime.NumGoroutine()
	done := make(chan error, 1)
	go func() {
		_, err := sim.Run()
		done <- err
	}()
	select {
	case err = <-done:
	case <-time.After(2 * time.Minute):
		t.Fatal("Run did not return")
	}
	if sink.setupErr != nil {
		t.Fatal(sink.setupErr)
	}
	if sink.n < 2 {
		t.Fatalf("only %d captures: the test needs a publication after the first", sink.n)
	}
	return sink, err, before
}

// waitGoroutines polls until the goroutine count is back to want: a
// goroutine that has signalled completion may still be on its way out.
func waitGoroutines(t *testing.T, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > want {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after Run, %d before: a publication outlived Run", runtime.NumGoroutine(), want)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestCheckpointPublishedWhenRunReturns: the writer publishes in the
// background, and Run flushes it, so the moment Run returns nil the
// directory loads to exactly the last cut the kernel captured.
func TestCheckpointPublishedWhenRunReturns(t *testing.T) {
	sink, err, before := runForwarding(t, 2, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	cp, err := replay.LoadCheckpoint(sink.dir)
	if err != nil {
		t.Fatal(err)
	}
	if cp.GVT != sink.last || cp.Committed != sink.committed {
		t.Fatalf("published checkpoint at GVT %v with %d committed; last capture was GVT %v with %d",
			cp.GVT, cp.Committed, sink.last, sink.committed)
	}
	waitGoroutines(t, before)
}

// TestCheckpointPublishFailureFailsRun: a publication that fails on the
// background goroutine must fail Run rather than hang or vanish, and must
// not leak the publisher. With a capture every round the failure surfaces
// from the next capture; one PE at a cadence of 16 rounds captures exactly
// twice, so there the failed second publication can only surface from
// Run's closing Flush.
func TestCheckpointPublishFailureFailsRun(t *testing.T) {
	for _, c := range []struct {
		name       string
		pes, every int
	}{
		{"next-capture", 2, 1},
		{"run-flush", 1, 16},
	} {
		t.Run(c.name, func(t *testing.T) {
			sink, err, before := runForwarding(t, c.pes, c.every, true)
			if c.name == "run-flush" && sink.n != 2 {
				t.Fatalf("%d captures, want exactly 2", sink.n)
			}
			if err == nil {
				t.Fatal("Run succeeded although its checkpoint directory was gone")
			}
			if !errors.Is(err, syscall.ENOTDIR) {
				t.Fatalf("Run error = %v, want ENOTDIR from the publication", err)
			}
			waitGoroutines(t, before)
		})
	}
}
