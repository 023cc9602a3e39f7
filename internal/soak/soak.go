// Package soak is the long-duration chaos harness over the simcheck
// differential matrix. Where a matrix run sweeps a fixed grid once, a soak
// run draws an open-ended randomized schedule of episodes from a seed —
// rotating models and engines, composing kernel fault injectors pairwise
// and deeper, squeezing the fossil-collection pressure valve — and runs
// each episode with live in-run invariant sweeps against the clean
// sequential oracle. Budgets are wall-clock or episode-count; the whole
// run is a deterministic function of its seed, and the report carries a
// fingerprint folding every episode's result so two runs of the same seed
// are comparable with a single integer.
//
// On any failing optimistic episode the harness auto-records the cell
// through internal/replay, shrinks it, and writes a ready-to-run .replay
// artifact — a soak failure at 3am lands as a minimal reproducer, not a
// log line.
package soak

import (
	"fmt"
	"hash/fnv"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/simcheck"
)

// Config shapes one soak run.
type Config struct {
	// Seed determines the entire schedule. Same seed, same episodes, same
	// report fingerprint (absent genuine nondeterminism bugs — which is
	// the point).
	Seed uint64
	// Episodes caps the run by episode count; 0 means uncapped.
	Episodes int
	// Wall caps the run by wall clock; 0 means uncapped. The budget is
	// checked between episodes, so the last episode may overrun it. With
	// neither cap set, Run defaults to a 16-episode smoke.
	Wall time.Duration
	// Models to rotate through; empty means all bundled models.
	Models []string
	// Mutation arms a seeded bug in every non-sequential cell (self-test:
	// a soak that cannot fail is not testing anything).
	Mutation simcheck.Mutation
	// ArtifactDir, when non-empty, receives shrunk .replay artifacts for
	// failing optimistic episodes.
	ArtifactDir string
	// Paranoid arms the kernel's in-run invariant sweeps on every
	// optimistic episode — the live-invariant mode; soaking without it
	// only checks end states.
	Paranoid bool
	// Logf, when non-nil, receives one line per episode.
	Logf func(format string, args ...any)
}

// Failure is one failed episode with its reproduction artifact.
type Failure struct {
	Episode int
	Cell    simcheck.Cell
	// Details are the fingerprint mismatches, or the run error.
	Details []string
	// Artifact is the .replay path, when one was recorded.
	Artifact string
}

func (f Failure) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "FAILURE episode %d [%s]", f.Episode, f.Cell)
	for _, d := range f.Details {
		fmt.Fprintf(&b, "\n  %s", d)
	}
	if f.Artifact != "" {
		fmt.Fprintf(&b, "\n  artifact: %s", f.Artifact)
	}
	return b.String()
}

// Report is the outcome of a soak run.
type Report struct {
	Seed     uint64
	Episodes int
	// Cells counts executed runs (references included).
	Cells    int
	Failures []Failure
	// Artifacts lists every .replay written (also present on Failures).
	Artifacts []string
	// Fingerprint folds every episode's cell recipe and result hashes;
	// two runs of the same seed must agree on it.
	Fingerprint uint64
	// ForcedRollbacks, MemThrottles and InvariantSweeps total the kernel
	// counters across episodes — evidence the chaos actually bit.
	ForcedRollbacks int64
	MemThrottles    int64
	InvariantSweeps int64
	// PeakLivePE is the largest concurrent live-event count any single PE
	// reached in any episode.
	PeakLivePE int64
	// HeapPeak is the process heap high-water mark (bytes) sampled after
	// each episode.
	HeapPeak uint64
	Elapsed  time.Duration
}

// OK reports whether every episode matched its reference.
func (r *Report) OK() bool { return len(r.Failures) == 0 }

func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "soak: seed=%d episodes=%d cells=%d failures=%d fingerprint=%016x\n",
		r.Seed, r.Episodes, r.Cells, len(r.Failures), r.Fingerprint)
	fmt.Fprintf(&b, "soak: %d forced rollbacks, %d throttled passes, %d invariant sweeps\n",
		r.ForcedRollbacks, r.MemThrottles, r.InvariantSweeps)
	fmt.Fprintf(&b, "soak: peak %d live events on one PE, heap high-water %.1f MiB, elapsed %v",
		r.PeakLivePE, float64(r.HeapPeak)/(1<<20), r.Elapsed.Round(time.Millisecond))
	return b.String()
}

// Run executes a seeded soak until its budget is spent.
func Run(cfg Config) (*Report, error) {
	models := cfg.Models
	if len(models) == 0 {
		models = simcheck.ModelNames()
	}
	for _, m := range models {
		if !simcheck.SupportsEngine(m, core.KindSequential) {
			return nil, fmt.Errorf("soak: unknown model %q (have %v)", m, simcheck.ModelNames())
		}
	}
	if cfg.Mutation != simcheck.MutNone {
		known := false
		for _, mu := range simcheck.Mutations() {
			known = known || mu == cfg.Mutation
		}
		if !known {
			return nil, fmt.Errorf("soak: unknown mutation %q (have %v)", cfg.Mutation, simcheck.Mutations())
		}
	}
	episodes, wall := cfg.Episodes, cfg.Wall
	if episodes <= 0 && wall <= 0 {
		episodes = 16
	}

	src := rand.New(rand.NewSource(int64(cfg.Seed)))
	start := time.Now()
	gen := func(i int) (Episode, bool) {
		if episodes > 0 && i >= episodes {
			return Episode{}, false
		}
		if wall > 0 && i > 0 && time.Since(start) >= wall {
			return Episode{}, false
		}
		return nextEpisode(src, i, models, cfg.Mutation, cfg.Paranoid), true
	}
	rep := run(cfg, gen)
	rep.Elapsed = time.Since(start)
	return rep, nil
}

// RunEpisodes executes a fixed, pre-expanded schedule — the fuzz target's
// driver. Config budgets are ignored; the schedule is the budget.
func RunEpisodes(eps []Episode, cfg Config) *Report {
	start := time.Now()
	gen := func(i int) (Episode, bool) {
		if i >= len(eps) {
			return Episode{}, false
		}
		return eps[i], true
	}
	rep := run(cfg, gen)
	rep.Elapsed = time.Since(start)
	return rep
}

// run drains the episode generator, comparing each cell against its clean
// sequential reference and folding results into the report.
func run(cfg Config, gen func(i int) (Episode, bool)) *Report {
	logf := cfg.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	rep := &Report{Seed: cfg.Seed}
	digest := fnv.New64a()
	var ms runtime.MemStats
	for i := 0; ; i++ {
		ep, ok := gen(i)
		if !ok {
			break
		}
		rep.Episodes++
		fail := runEpisode(ep, cfg, rep, digest, logf)
		if fail != nil {
			rep.Failures = append(rep.Failures, *fail)
			if fail.Artifact != "" {
				rep.Artifacts = append(rep.Artifacts, fail.Artifact)
			}
		}
		runtime.ReadMemStats(&ms)
		if ms.HeapAlloc > rep.HeapPeak {
			rep.HeapPeak = ms.HeapAlloc
		}
	}
	rep.Fingerprint = digest.Sum64()
	return rep
}

// runEpisode executes one episode and returns its failure, if any. Both
// the reference and the target fold into the rolling digest, so a run
// whose *reference* drifts (a sequential nondeterminism bug) changes the
// report fingerprint too.
func runEpisode(ep Episode, cfg Config, rep *Report, digest io.Writer, logf func(format string, args ...any)) *Failure {
	c := ep.Cell
	refCell := simcheck.Cell{
		Model: c.Model, Engine: core.KindSequential,
		PEs: 1, KPs: 1, Queue: c.Queue, Seed: c.Seed,
	}
	ref, err := simcheck.RunCell(refCell)
	rep.Cells++
	if err != nil {
		fmt.Fprintf(digest, "episode %d ref error\n", ep.Index)
		logf("FAIL ep %d reference [%s]: %v", ep.Index, refCell, err)
		return &Failure{Episode: ep.Index, Cell: refCell,
			Details: []string{fmt.Sprintf("reference run failed: %v", err)}}
	}
	var got simcheck.Result
	ckpt := ep.Checkpoint && c.Engine == core.KindOptimistic
	var ckptDir string
	if ckpt {
		if ckptDir, err = ckptDirFor(cfg, ep); err == nil {
			got, err = simcheck.RunCellResumed(c, ckptDir, 0)
		}
	} else {
		got, err = simcheck.RunCell(c)
	}
	rep.Cells++
	if err != nil {
		fmt.Fprintf(digest, "episode %d [%s] ckpt=%v error\n", ep.Index, c, ckpt)
		logf("FAIL ep %d [%s] run error: %v", ep.Index, c, err)
		return record(ep, cfg, logf, keepCkptDir(ckptDir, logf, &Failure{Episode: ep.Index, Cell: c,
			Details: []string{fmt.Sprintf("run failed: %v", err)}}))
	}
	if got.Stats != nil {
		rep.ForcedRollbacks += got.Stats.ForcedRollbacks
		rep.MemThrottles += got.Stats.MemThrottles
		rep.InvariantSweeps += got.Stats.InvariantSweeps
		if got.Stats.LivePeak > rep.PeakLivePE {
			rep.PeakLivePE = got.Stats.LivePeak
		}
	}
	fmt.Fprintf(digest, "episode %d [%s] ckpt=%v ref=%016x/%016x got=%d/%016x/%016x\n",
		ep.Index, c, ckpt, ref.FP.TraceHash, ref.FP.StateHash,
		got.FP.Committed, got.FP.TraceHash, got.FP.StateHash)
	if diffs := simcheck.Compare(ref.FP, got.FP); len(diffs) > 0 {
		logf("FAIL ep %d [%s] %s", ep.Index, c, strings.Join(diffs, "; "))
		return record(ep, cfg, logf, keepCkptDir(ckptDir, logf, &Failure{Episode: ep.Index, Cell: c, Details: diffs}))
	}
	if ckptDir != "" {
		os.RemoveAll(ckptDir)
	}
	if ckpt {
		logf("ok   ep %d [%s] committed=%d (resumed from checkpoint)", ep.Index, c, got.FP.Committed)
	} else {
		logf("ok   ep %d [%s] committed=%d", ep.Index, c, got.FP.Committed)
	}
	return nil
}

// ckptDirFor allocates a checkpoint directory for a crash-recovery
// episode: under the artifact directory when one is configured (so a
// failing episode's checkpoints survive as evidence), in the system temp
// directory otherwise. The directory is removed when the episode passes.
func ckptDirFor(cfg Config, ep Episode) (string, error) {
	if cfg.ArtifactDir != "" {
		dir := filepath.Join(cfg.ArtifactDir, fmt.Sprintf("ckpt-ep%04d", ep.Index))
		return dir, os.MkdirAll(dir, 0o755)
	}
	return os.MkdirTemp("", "soak-ckpt-")
}

// keepCkptDir annotates a failure with the checkpoint directory kept for
// post-mortem, when the failing episode was a crash-recovery one.
func keepCkptDir(dir string, logf func(format string, args ...any), f *Failure) *Failure {
	if dir != "" {
		logf("keeping checkpoint dir %s for episode %d", dir, f.Episode)
		f.Details = append(f.Details, fmt.Sprintf("checkpoint dir kept: %s", dir))
	}
	return f
}

// record attaches a shrunk .replay artifact to a failing optimistic
// episode when an artifact directory is configured.
func record(ep Episode, cfg Config, logf func(format string, args ...any), f *Failure) *Failure {
	if cfg.ArtifactDir == "" || ep.Cell.Engine != core.KindOptimistic {
		return f
	}
	path, err := simcheck.AutoRecord(cfg.ArtifactDir, ep.Cell, logf)
	if err != nil {
		logf("auto-record ep %d [%s] failed: %v", ep.Index, ep.Cell, err)
		return f
	}
	logf("auto-record ep %d wrote %s", ep.Index, path)
	f.Artifact = path
	return f
}
