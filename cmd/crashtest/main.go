// Command crashtest proves the checkpoint/restore subsystem's recovery
// contract by actually killing processes. The parent records a reference
// run in-process, verifies it against the sequential oracle, builds a
// child copy of itself with the crashpoints build tag, and then — for
// every registered kill point — runs the child under load with
// CRASHPOINTS armed so the kernel SIGKILLs it mid-publication. After each
// death the parent resumes from whatever the dead child left on disk and
// holds the resumed run to the recording bit-for-bit: final trace hash,
// per-round prefix hashes beyond the cut, committed counts composed
// across it. A child that survives its armed kill point is itself a test
// failure.
//
//	crashtest                     # one SIGKILL per registered kill point
//	crashtest -race               # child built with the race detector
//	crashtest -iters 50 -seed 3   # randomized kill loop (nightly)
//
// With -iters N the deterministic sweep is replaced by N randomized
// episodes: random kill point, random hit count, random model seed. Every
// episode must still recover exactly. Failing episodes keep their
// checkpoint directory and recording under -artifacts for post-mortem.
//
// Exits 0 when every kill recovered exactly, 1 on any recovery failure,
// 2 on usage or environment errors. See docs/CHECKPOINT.md and
// docs/TESTING.md ("Crash testing").
package main

import (
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"

	"repro/internal/core"
	"repro/internal/crash"
	"repro/internal/replay"
	"repro/internal/simcheck"
)

func main() {
	var (
		child     = flag.Bool("child", false, "run as the crash victim (internal; driven by the parent)")
		logPath   = flag.String("log", "", "replay log to run (child mode)")
		ckptDir   = flag.String("checkpoint-dir", "", "checkpoint directory (child mode)")
		every     = flag.Int("every", 16, "checkpoint cadence in GVT rounds")
		points    = flag.String("points", "", "comma-separated kill points to sweep (default: all registered)")
		model     = flag.String("model", "hotpotato", "model for the reference recording")
		pes       = flag.Int("pes", 4, "PE count for the reference recording")
		kps       = flag.Int("kps", 8, "KP count for the reference recording")
		seed      = flag.Uint64("seed", 7, "model seed (and randomized-mode schedule seed)")
		iters     = flag.Int("iters", 0, "randomized kill episodes (0 = one deterministic pass over -points)")
		race      = flag.Bool("race", false, "build the crash child with the race detector")
		artifacts = flag.String("artifacts", "", "keep failing checkpoint dirs and recordings under this directory")
		verbose   = flag.Bool("v", false, "verbose progress")
	)
	flag.Parse()

	if *child {
		runChild(*logPath, *ckptDir, *every)
		return
	}

	logf := func(format string, args ...any) {
		if *verbose {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		}
	}

	work, err := os.MkdirTemp("", "crashtest-")
	if err != nil {
		fatal(err)
	}
	defer os.RemoveAll(work)

	childBin, err := buildChild(work, *race)
	if err != nil {
		fatal(err)
	}

	pts := crash.Points()
	if *points != "" {
		pts = strings.Split(*points, ",")
	}

	h := &harness{
		child: childBin, work: work, every: *every,
		artifacts: *artifacts, logf: logf,
	}

	failures := 0
	if *iters > 0 {
		// Nightly mode: randomized kill point, hit count and workload seed.
		// The schedule is a deterministic function of -seed.
		src := rand.New(rand.NewSource(int64(*seed)))
		for i := 0; i < *iters; i++ {
			pt := pts[src.Intn(len(pts))]
			hit := 1 + src.Intn(4)
			s := uint64(src.Int63()) | 1
			name := fmt.Sprintf("iter%03d-%s-hit%d-seed%d", i, pt, hit, s)
			if !h.episode(name, *model, *pes, *kps, s, pt, hit) {
				failures++
			}
		}
	} else {
		// Deterministic sweep: every registered point, killed on its second
		// hit so a complete previous checkpoint exists to fall back to, plus
		// one first-hit kill at the head of the sequence (recovery before
		// any checkpoint was ever published means restarting from scratch).
		lg, err := h.record(*model, *pes, *kps, *seed)
		if err != nil {
			fatal(err)
		}
		if !h.kill(lg, "uninterrupted", "", 0) {
			failures++
		}
		if !h.kill(lg, "first-"+pts[0], pts[0], 1) {
			failures++
		}
		for _, pt := range pts {
			if !h.kill(lg, pt, pt, 2) {
				failures++
			}
		}
	}

	if failures > 0 {
		fmt.Fprintf(os.Stderr, "crashtest: %d recovery failure(s)\n", failures)
		os.Exit(1)
	}
	fmt.Println("crashtest: every kill recovered exactly")
}

// harness drives crash episodes against a prebuilt crashpoints child.
type harness struct {
	child     string
	work      string
	every     int
	artifacts string
	logf      func(format string, args ...any)
	recorded  map[string]*replay.Log
	logFiles  map[string]string
}

// record produces (and caches) the reference recording for a cell and
// checks it against the sequential oracle — the ground truth every resumed
// run is later held to.
func (h *harness) record(model string, pes, kps int, seed uint64) (*replay.Log, error) {
	key := fmt.Sprintf("%s-%d-%d-%d", model, pes, kps, seed)
	if h.recorded == nil {
		h.recorded = map[string]*replay.Log{}
		h.logFiles = map[string]string{}
	}
	if lg, ok := h.recorded[key]; ok {
		return lg, nil
	}
	spec := simcheck.SpecForCell(simcheck.Cell{
		Model: model, PEs: pes, KPs: kps, Seed: seed,
	})
	lg, err := simcheck.Record(spec)
	if err != nil {
		return nil, fmt.Errorf("recording %s: %w", key, err)
	}
	if diffs, err := simcheck.Replay(lg, core.KindSequential); err != nil {
		return nil, fmt.Errorf("oracle run for %s: %w", key, err)
	} else if len(diffs) > 0 {
		return nil, fmt.Errorf("recording %s diverges from the sequential oracle: %v", key, diffs)
	}
	path := filepath.Join(h.work, key+".replay")
	if err := replay.WriteFile(path, lg); err != nil {
		return nil, err
	}
	h.recorded[key], h.logFiles[key] = lg, path
	h.logf("recorded %s: %d rounds, %d committed (oracle ok)", key, len(lg.Rounds), lg.Final.Committed)
	return lg, nil
}

// episode runs one randomized kill: record (cached per seed), kill, verify.
func (h *harness) episode(name, model string, pes, kps int, seed uint64, point string, hit int) bool {
	lg, err := h.record(model, pes, kps, seed)
	if err != nil {
		fmt.Fprintf(os.Stderr, "crashtest: %s: %v\n", name, err)
		return false
	}
	return h.kill(lg, name, point, hit)
}

// kill runs the child on lg's recording with the named kill point armed on
// its hit-th pass (no kill when point is empty), then verifies recovery
// from whatever the child left behind. Reports success.
func (h *harness) kill(lg *replay.Log, name, point string, hit int) bool {
	dir := filepath.Join(h.work, "ck-"+name)
	logFile := h.logFiles[fmt.Sprintf("%s-%d-%d-%d", lg.Spec.Model, lg.Spec.PEs, lg.Spec.KPs, lg.Spec.Seed)]
	cmd := exec.Command(h.child,
		"-child", "-log", logFile, "-checkpoint-dir", dir,
		"-every", fmt.Sprint(h.every))
	cmd.Env = os.Environ()
	if point != "" {
		cmd.Env = append(cmd.Env, fmt.Sprintf("CRASHPOINTS=%s:%d", point, hit))
	}
	out, err := cmd.CombinedOutput()

	ok := false
	defer func() {
		if ok {
			os.RemoveAll(dir)
		} else {
			h.keep(name, dir, logFile)
		}
	}()

	if point == "" {
		// Control run: checkpointing armed, nobody killed — the run must
		// reproduce the recording and leave a loadable checkpoint behind.
		if err != nil {
			fmt.Fprintf(os.Stderr, "crashtest: %s: uninterrupted child failed: %v\n%s", name, err, out)
			return false
		}
		if _, err := replay.LoadCheckpoint(dir); err != nil {
			fmt.Fprintf(os.Stderr, "crashtest: %s: no loadable checkpoint after clean run: %v\n", name, err)
			return false
		}
		h.logf("ok   %s (clean checkpointed run reproduces)", name)
		ok = true
		return true
	}

	if !diedBySIGKILL(err) {
		fmt.Fprintf(os.Stderr, "crashtest: %s: child did not die at %s hit %d (err=%v)\n%s",
			name, point, hit, err, out)
		return false
	}

	// The child is dead mid-publication. Recover: resume from the published
	// checkpoint, or — if the kill predates any publication — restart from
	// scratch. Either way the recording's fingerprints are the contract.
	diffs, err := simcheck.ResumeVerify(lg, dir)
	how := "resumed"
	if errors.Is(err, replay.ErrNoCheckpoint) {
		how = "restarted"
		diffs, err = simcheck.Replay(lg, core.KindOptimistic)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "crashtest: %s: recovery failed: %v\n", name, err)
		return false
	}
	if len(diffs) > 0 {
		fmt.Fprintf(os.Stderr, "crashtest: %s: %s run diverges from recording:\n", name, how)
		for _, d := range diffs {
			fmt.Fprintf(os.Stderr, "  %s\n", d)
		}
		return false
	}
	h.logf("ok   %s (killed at %s hit %d, %s run reproduces)", name, point, hit, how)
	ok = true
	return true
}

// keep preserves a failing episode's checkpoint directory and recording
// under the artifact directory, when one is configured.
func (h *harness) keep(name, dir, logFile string) {
	if h.artifacts == "" {
		return
	}
	dst := filepath.Join(h.artifacts, name)
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return
	}
	os.Rename(dir, filepath.Join(dst, "checkpoints"))
	if data, err := os.ReadFile(logFile); err == nil {
		os.WriteFile(filepath.Join(dst, "run.replay"), data, 0o644)
	}
	fmt.Fprintf(os.Stderr, "crashtest: kept failing state under %s\n", dst)
}

// diedBySIGKILL reports whether a child process was killed by SIGKILL —
// the only acceptable way for an armed child to stop.
func diedBySIGKILL(err error) bool {
	var exit *exec.ExitError
	if !errors.As(err, &exit) {
		return false
	}
	ws, ok := exit.Sys().(syscall.WaitStatus)
	return ok && ws.Signaled() && ws.Signal() == syscall.SIGKILL
}

// buildChild compiles this command with the crashpoints build tag (and
// optionally the race detector) into dir, producing the kill victim.
func buildChild(dir string, race bool) (string, error) {
	bin := filepath.Join(dir, "crashtest-child")
	args := []string{"build", "-tags", "crashpoints"}
	if race {
		args = append(args, "-race")
	}
	args = append(args, "-o", bin, "repro/cmd/crashtest")
	cmd := exec.Command("go", args...)
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("building crash child: %v\n%s", err, out)
	}
	return bin, nil
}

// runChild is the victim side: replay the recording under the optimistic
// engine with periodic checkpoints armed. When CRASHPOINTS is set (and the
// binary carries the crashpoints tag) the kernel SIGKILLs us mid-publish;
// otherwise the run completes and is held to the recording like any
// checkpointed verify.
func runChild(logPath, dir string, every int) {
	if logPath == "" || dir == "" {
		fatal(fmt.Errorf("-child needs -log and -checkpoint-dir"))
	}
	if os.Getenv("CRASHPOINTS") != "" && !crash.Enabled {
		fatal(fmt.Errorf("CRASHPOINTS set but this binary lacks the crashpoints build tag"))
	}
	lg, err := replay.ReadFile(logPath)
	if err != nil {
		fatal(err)
	}
	diffs, err := simcheck.ReplayCheckpointed(lg, dir, every)
	if err != nil {
		fatal(err)
	}
	if len(diffs) > 0 {
		fmt.Fprintf(os.Stderr, "crashtest child: run diverges from recording:\n")
		for _, d := range diffs {
			fmt.Fprintf(os.Stderr, "  %s\n", d)
		}
		os.Exit(1)
	}
	fmt.Println("crashtest child: checkpointed run reproduces recording")
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "crashtest:", err)
	os.Exit(2)
}
