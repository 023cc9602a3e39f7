// Package cmdtest builds the repository's binaries and drives them end to
// end — the smoke layer above the unit and integration suites.
package cmdtest

import (
	"errors"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"
)

var binDir string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "repro-cli")
	if err != nil {
		panic(err)
	}
	binDir = dir
	for _, tool := range []string{"hotpotato", "figures", "phold", "replay", "simcheck", "soaktest", "crashtest"} {
		cmd := exec.Command("go", "build", "-o", filepath.Join(dir, tool), "repro/cmd/"+tool)
		cmd.Dir = ".."
		if out, err := cmd.CombinedOutput(); err != nil {
			panic(string(out))
		}
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

func run(t *testing.T, tool string, args ...string) string {
	t.Helper()
	cmd := exec.Command(filepath.Join(binDir, tool), args...)
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("%s %v: %v\n%s", tool, args, err, out)
	}
	return string(out)
}

func runExpectError(t *testing.T, tool string, args ...string) string {
	t.Helper()
	cmd := exec.Command(filepath.Join(binDir, tool), args...)
	out, err := cmd.CombinedOutput()
	if err == nil {
		t.Fatalf("%s %v succeeded, expected failure:\n%s", tool, args, out)
	}
	return string(out)
}

// runExit runs tool and returns its exit status with stdout and stderr
// kept apart, for the CLIs whose exit codes mean different things.
func runExit(t *testing.T, tool string, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	cmd := exec.Command(filepath.Join(binDir, tool), args...)
	var out, errOut strings.Builder
	cmd.Stdout, cmd.Stderr = &out, &errOut
	err := cmd.Run()
	var exit *exec.ExitError
	switch {
	case err == nil:
	case errors.As(err, &exit):
		code = exit.ExitCode()
	default:
		t.Fatalf("%s %v: %v", tool, args, err)
	}
	return code, out.String(), errOut.String()
}

// TestHotpotatoCLI covers the main binary's happy path and determinism.
func TestHotpotatoCLI(t *testing.T) {
	a := run(t, "hotpotato", "-n", "8", "-steps", "30", "-seed", "5", "-kernel")
	for _, want := range []string{"packets delivered", "avg wait to inject", "events committed"} {
		if !strings.Contains(a, want) {
			t.Fatalf("output missing %q:\n%s", want, a)
		}
	}
	// Same seed, parallel vs sequential: the statistics block must match.
	b := run(t, "hotpotato", "-n", "8", "-steps", "30", "-seed", "5", "-sequential")
	stats := func(out string) string {
		idx := strings.Index(out, "network:")
		end := strings.Index(out, "kernel:")
		if end < 0 {
			end = len(out)
		}
		return out[idx:end]
	}
	if stats(a) != stats(b) {
		t.Fatalf("parallel and sequential CLI outputs differ:\n%s\nvs\n%s", stats(a), stats(b))
	}
}

// TestHotpotatoCLIFlags covers policy, traffic, topology and error paths.
func TestHotpotatoCLIFlags(t *testing.T) {
	out := run(t, "hotpotato", "-n", "6", "-steps", "20", "-policy", "greedy",
		"-traffic", "tornado", "-topology", "mesh", "-fill", "2", "-max-optimism", "4")
	if !strings.Contains(out, "policy=greedy") || !strings.Contains(out, "mesh") {
		t.Fatalf("flag echo missing:\n%s", out)
	}
	runExpectError(t, "hotpotato", "-policy", "warp9")
	runExpectError(t, "hotpotato", "-traffic", "nope")
	runExpectError(t, "hotpotato", "-n", "1")
}

// TestHotpotatoProgressCLI covers -progress: it prints "gvt N / steps"
// lines with N nondecreasing, and reporting progress leaves the network
// statistics unchanged.
func TestHotpotatoProgressCLI(t *testing.T) {
	args := []string{"-n", "8", "-steps", "30", "-pes", "2"}
	plain := run(t, "hotpotato", args...)
	out := run(t, "hotpotato", append(args, "-progress")...)
	last, lines := math.Inf(-1), 0
	for _, line := range strings.Split(out, "\n") {
		if !strings.HasPrefix(line, "gvt ") || !strings.HasSuffix(line, " / 30") {
			continue
		}
		n, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimPrefix(line, "gvt "), " / 30"), 64)
		if err != nil {
			t.Fatalf("bad progress line %q: %v", line, err)
		}
		if n < last {
			t.Fatalf("progress went backwards: %v then %v\n%s", last, n, out)
		}
		last = n
		lines++
	}
	if lines == 0 {
		t.Fatalf("no gvt progress lines:\n%s", out)
	}
	network := func(out string) string {
		idx := strings.Index(out, "network:")
		if idx < 0 {
			t.Fatalf("no network block:\n%s", out)
		}
		return out[idx:]
	}
	if network(out) != network(plain) {
		t.Fatalf("-progress changed the statistics:\n%s\nvs\n%s", network(out), network(plain))
	}
}

// TestPholdCLI covers the benchmark binary.
func TestPholdCLI(t *testing.T) {
	out := run(t, "phold", "-lps", "64", "-end", "10", "-population", "2")
	if !strings.Contains(out, "jobs processed") {
		t.Fatalf("output missing totals:\n%s", out)
	}
	seq := run(t, "phold", "-lps", "64", "-end", "10", "-population", "2", "-sequential")
	pick := func(s string) string {
		for _, line := range strings.Split(s, "\n") {
			if strings.Contains(line, "jobs processed") {
				return line
			}
		}
		return ""
	}
	if pick(out) != pick(seq) {
		t.Fatalf("parallel %q != sequential %q", pick(out), pick(seq))
	}
	runExpectError(t, "phold", "-lps", "0")
}

// TestFiguresCLI regenerates one cheap figure with every output mode.
func TestFiguresCLI(t *testing.T) {
	outDir := t.TempDir()
	out := run(t, "figures", "-fig", "heartbeat", "-steps", "5", "-progress=false", "-out", outDir)
	if !strings.Contains(out, "HEARTBEAT") || !strings.Contains(out, "true") || !strings.Contains(out, "false") {
		t.Fatalf("heartbeat ablation output wrong:\n%s", out)
	}
	csv, err := os.ReadFile(filepath.Join(outDir, "heartbeat.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(csv), "heartbeat,") {
		t.Fatalf("CSV header wrong: %q", string(csv)[:20])
	}

	det := run(t, "figures", "-fig", "determinism", "-steps", "20", "-progress=false")
	if !strings.Contains(det, "RESULT: identical") {
		t.Fatalf("determinism figure failed:\n%s", det)
	}

	chart := run(t, "figures", "-fig", "3", "-steps", "10", "-chart", "-csv", "-progress=false")
	if !strings.Contains(chart, "legend:") {
		t.Fatalf("chart output missing legend:\n%s", chart)
	}
	if !strings.Contains(chart, "# Figure 3") {
		t.Fatalf("CSV mode missing title comment:\n%s", chart)
	}
	runExpectError(t, "figures", "-fig", "99")
}

// TestReplayCLI drives the full record -> verify -> dump -> shrink loop: a
// clean recording must verify on both engines; a recording of a seeded
// mutation must diverge from the sequential oracle, shrink to a fraction of
// its injections, and STILL diverge after shrinking.
func TestReplayCLI(t *testing.T) {
	dir := t.TempDir()
	clean := filepath.Join(dir, "clean.replay")

	out := run(t, "replay", "-record", "-model", "hotpotato", "-pes", "2", "-seed", "7", "-o", clean)
	if !strings.Contains(out, "recorded "+clean) {
		t.Fatalf("record output wrong:\n%s", out)
	}
	for _, mode := range []string{"verify", "sequential"} {
		out = run(t, "replay", "-mode", mode, clean)
		if !strings.Contains(out, mode+" reproduces") {
			t.Fatalf("-mode %s did not reproduce the recording:\n%s", mode, out)
		}
	}
	out = run(t, "replay", "-dump", clean)
	for _, want := range []string{"replay log v1", "model=hotpotato", "injections:", "rounds:", "final:"} {
		if !strings.Contains(out, want) {
			t.Fatalf("dump missing %q:\n%s", want, out)
		}
	}

	// A mutated recording fails against the oracle, before and after shrink.
	bad := filepath.Join(dir, "bad.replay")
	run(t, "replay", "-record", "-model", "phold", "-mutation", "map-order", "-pes", "2", "-seed", "1", "-o", bad)
	out = runExpectError(t, "replay", "-mode", "sequential", bad)
	if !strings.Contains(out, "DIVERGES") {
		t.Fatalf("mutated recording did not diverge:\n%s", out)
	}
	min := filepath.Join(dir, "bad.min.replay")
	out = run(t, "replay", "-shrink", bad)
	if !strings.Contains(out, "-> "+min) {
		t.Fatalf("shrink output wrong:\n%s", out)
	}
	out = runExpectError(t, "replay", "-mode", "sequential", min)
	if !strings.Contains(out, "DIVERGES") {
		t.Fatalf("shrunken log no longer diverges:\n%s", out)
	}

	// Error paths: corrupt input and bad flags exit with a usage error.
	junk := filepath.Join(dir, "junk.replay")
	if err := os.WriteFile(junk, []byte("not a replay log"), 0o644); err != nil {
		t.Fatal(err)
	}
	runExpectError(t, "replay", junk)
	runExpectError(t, "replay", "-mode", "warp9", clean)
	runExpectError(t, "replay", "-record", "-model", "nonesuch", "-o", filepath.Join(dir, "x.replay"))
	runExpectError(t, "replay")
}

// TestReplayCheckpointCLI drives the crash-recovery loop through the
// replay binary with a real SIGKILL and no build tags: record, run a
// checkpointed verify, kill it as soon as a checkpoint is published,
// resume from the survivor and require exit 0. The artifact-path
// convention holds throughout: the checkpoint directory is the only state
// shared between the killed process and its successor.
func TestReplayCheckpointCLI(t *testing.T) {
	dir := t.TempDir()
	lg := filepath.Join(dir, "run.replay")
	ck := filepath.Join(dir, "ck")

	run(t, "replay", "-record", "-model", "hotpotato", "-pes", "4", "-seed", "11", "-end", "90", "-o", lg)

	// Launch a checkpointed verify and SIGKILL it once the first checkpoint
	// publishes (MANIFEST appearing is the publication point).
	cmd := exec.Command(filepath.Join(binDir, "replay"),
		"-checkpoint-dir", ck, "-checkpoint-every", "8", lg)
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	manifest := filepath.Join(ck, "MANIFEST")
	deadline := time.Now().Add(60 * time.Second)
	for {
		if _, err := os.Stat(manifest); err == nil {
			break
		}
		if time.Now().After(deadline) {
			cmd.Process.Kill()
			cmd.Wait()
			t.Fatal("no checkpoint published within 60s")
		}
		time.Sleep(5 * time.Millisecond)
	}
	cmd.Process.Kill() // SIGKILL: no cleanup handlers run
	cmd.Wait()

	// The killed run's directory must resume and verify cleanly...
	out := run(t, "replay", "-resume", "-checkpoint-dir", ck, lg)
	if !strings.Contains(out, "resume reproduces") {
		t.Fatalf("resume output wrong:\n%s", out)
	}
	// ...and resume without a published checkpoint is a usage error.
	out = runExpectError(t, "replay", "-resume", "-checkpoint-dir", filepath.Join(dir, "empty"), lg)
	if !strings.Contains(out, "no checkpoint") {
		t.Fatalf("expected ErrNoCheckpoint, got:\n%s", out)
	}
	runExpectError(t, "replay", "-resume", lg)
	runExpectError(t, "replay", "-mode", "sequential", "-checkpoint-dir", ck, lg)
}

// TestHotpotatoCheckpointCLI covers the stats binary's checkpoint flags: a
// run that checkpoints and a run resumed from its last published
// checkpoint must print identical network statistics.
func TestHotpotatoCheckpointCLI(t *testing.T) {
	ck := filepath.Join(t.TempDir(), "ck")
	args := []string{"-n", "8", "-steps", "40", "-seed", "5", "-pes", "4", "-kps", "8", "-checkpoint-dir", ck}
	full := run(t, "hotpotato", args...)
	resumed := run(t, "hotpotato", append(args, "-resume")...)
	if !strings.Contains(resumed, "resumed from checkpoint") {
		t.Fatalf("resume banner missing:\n%s", resumed)
	}
	stats := func(out string) string {
		idx := strings.Index(out, "network:")
		if idx < 0 {
			t.Fatalf("no network block:\n%s", out)
		}
		return out[idx:]
	}
	if stats(full) != stats(resumed) {
		t.Fatalf("resumed statistics differ:\n%s\nvs\n%s", stats(full), stats(resumed))
	}
	runExpectError(t, "hotpotato", "-sequential", "-checkpoint-dir", ck)
	runExpectError(t, "hotpotato", "-resume")
}

// TestFailedRunKeepsProfile: a run that fails after profiling started
// must still stop the profile, or the CPU profile is left an empty file.
func TestFailedRunKeepsProfile(t *testing.T) {
	dir := t.TempDir()
	cpu := filepath.Join(dir, "c.out")
	runExpectError(t, "hotpotato", "-n", "8", "-steps", "10",
		"-cpuprofile", cpu, "-trace", filepath.Join(dir, "t.out"),
		"-resume", "-checkpoint-dir", filepath.Join(dir, "missing"))
	fi, err := os.Stat(cpu)
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() == 0 {
		t.Fatal("failed run left an empty CPU profile")
	}
}

// TestSoaktestCLI covers the chaos harness binary: a seeded smoke soak is
// deterministic (same report fingerprint on re-run), and a mutation-armed
// soak exits 1 with failures and artifact paths on stderr while the
// summary stays on stdout.
func TestSoaktestCLI(t *testing.T) {
	a := run(t, "soaktest", "-seed", "7", "-episodes", "2")
	if !strings.Contains(a, "fingerprint=") {
		t.Fatalf("summary missing fingerprint:\n%s", a)
	}
	b := run(t, "soaktest", "-seed", "7", "-episodes", "2")
	fp := func(s string) string {
		for _, f := range strings.Fields(s) {
			if strings.HasPrefix(f, "fingerprint=") {
				return f
			}
		}
		return ""
	}
	if fp(a) == "" || fp(a) != fp(b) {
		t.Fatalf("same seed produced different fingerprints: %q vs %q", fp(a), fp(b))
	}

	dir := t.TempDir()
	cmd := exec.Command(filepath.Join(binDir, "soaktest"),
		"-seed", "21", "-episodes", "2", "-models", "phold",
		"-mutation", "map-order", "-artifacts", dir)
	var stdout, stderr strings.Builder
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 1 {
		t.Fatalf("mutation soak: err=%v\nstdout:\n%s\nstderr:\n%s", err, stdout.String(), stderr.String())
	}
	if !strings.Contains(stderr.String(), "FAILURE") || !strings.Contains(stderr.String(), "replay artifact") {
		t.Fatalf("stderr missing failure/artifact lines:\n%s", stderr.String())
	}
	if strings.Contains(stdout.String(), "replay artifact") {
		t.Fatalf("artifact paths leaked to stdout:\n%s", stdout.String())
	}
	if !strings.Contains(stdout.String(), "failures=") {
		t.Fatalf("summary not on stdout:\n%s", stdout.String())
	}
	runExpectError(t, "soaktest", "-models", "nope")
}

// TestSimcheckCLI covers the matrix binary's three exit codes: 0 for a
// clean smoke matrix, 1 with a DIVERGENCE artifact on stderr when a seeded
// bug is armed, and 2 for an unknown model or mutation.
func TestSimcheckCLI(t *testing.T) {
	code, stdout, stderr := runExit(t, "simcheck")
	if code != 0 || !strings.Contains(stdout, "64 cells, 0 divergences") {
		t.Fatalf("smoke matrix: exit %d\nstdout:\n%s\nstderr:\n%s", code, stdout, stderr)
	}
	code, stdout, stderr = runExit(t, "simcheck", "-models", "phold", "-mutation", "broken-reverse")
	if code != 1 || !strings.Contains(stderr, "DIVERGENCE") {
		t.Fatalf("broken-reverse: exit %d\nstdout:\n%s\nstderr:\n%s", code, stdout, stderr)
	}
	for _, args := range [][]string{{"-mutation", "nope"}, {"-models", "nope"}} {
		if code, _, stderr := runExit(t, "simcheck", args...); code != 2 {
			t.Fatalf("simcheck %v: exit %d, want 2\n%s", args, code, stderr)
		}
	}
}
