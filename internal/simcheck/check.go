package simcheck

import (
	"fmt"
	"hash"
	"hash/fnv"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/replay"
)

// Case is one differential check: Cell is run and held to the clean
// sequential reference of its (model, seed). Matrix cells and soak
// episodes are both cases, and Check is the one loop that runs them.
type Case struct {
	// Index is the case's position in its source: a soak episode's number.
	Index int
	Cell  Cell
	// Checkpoint routes an optimistic case through a mid-run
	// checkpoint/restore cut (RunCellResumed): the run checkpoints
	// periodically, is rebuilt from the last published checkpoint, and the
	// composed fingerprint is held to the same sequential oracle.
	Checkpoint bool
}

// Cases is the source that yields cs in order.
func Cases(cs ...Case) func() (Case, bool) {
	return func() (Case, bool) {
		if len(cs) == 0 {
			return Case{}, false
		}
		k := cs[0]
		cs = cs[1:]
		return k, true
	}
}

// Check drains next, running each case against its reference and folding
// the results into one report. Sources yield cases grouped by (model,
// seed), so the reference of the latest group is the only one held; a
// group whose reference fails is reported once and its cases skipped.
//
// A diverging case whose cell is optimistic is auto-recorded into
// artifacts (AutoRecord), shrunk, and written as a .replay, when artifacts
// is non-empty; a checkpoint case's directory lives there too, and is kept
// for post-mortem when the case fails. logf, when non-nil, receives one
// line per run.
func Check(next func() (Case, bool), artifacts string, logf func(format string, args ...any)) *Report {
	if logf == nil {
		logf = func(string, ...any) {}
	}
	start := time.Now()
	ck := &checker{rep: &Report{}, artifacts: artifacts, logf: logf, digest: fnv.New64a()}
	var ms runtime.MemStats
	for {
		k, ok := next()
		if !ok {
			break
		}
		ck.rep.Cases++
		if d := ck.check(k); d != nil {
			ck.rep.Divergences = append(ck.rep.Divergences, *d)
			if d.Artifact != "" {
				ck.rep.Artifacts = append(ck.rep.Artifacts, d.Artifact)
			}
		}
		runtime.ReadMemStats(&ms)
		ck.rep.HeapPeak = max(ck.rep.HeapPeak, ms.HeapAlloc)
	}
	ck.rep.Fingerprint = ck.digest.Sum64()
	ck.rep.Elapsed = time.Since(start)
	return ck.rep
}

// checker is Check's state between cases.
type checker struct {
	rep       *Report
	artifacts string
	logf      func(format string, args ...any)
	// digest folds every run's recipe and result hashes (Fingerprint).
	digest hash.Hash64
	// ref is the reference run of the latest (model, seed).
	ref *reference
}

type reference struct {
	cell Cell
	fp   replay.Fingerprint
	err  error
}

// check runs one case and returns its divergence, if any. Both the
// reference and the target fold into the rolling digest, so a run whose
// reference drifts (a sequential nondeterminism bug) changes the report
// fingerprint too.
func (ck *checker) check(k Case) *Divergence {
	c := k.Cell
	refCell := Cell{Model: c.Model, Engine: core.KindSequential, PEs: 1, KPs: 1, Seed: c.Seed}
	if ck.ref == nil || ck.ref.cell != refCell {
		res, err := RunCell(refCell)
		ck.rep.Cells++
		ck.ref = &reference{cell: refCell, fp: res.FP, err: err}
		if err != nil {
			fmt.Fprintf(ck.digest, "episode %d ref error\n", k.Index)
			ck.logf("FAIL [%s] reference run error: %v", refCell, err)
			return &Divergence{Index: k.Index, Got: refCell,
				Details: []string{fmt.Sprintf("reference run failed: %v", err)}}
		}
		ck.logf("ref  [%s] committed=%d trace=%016x", refCell, res.FP.Committed, res.FP.TraceHash)
	} else if ck.ref.err != nil {
		return nil
	}

	ckpt := k.Checkpoint && c.Engine == core.KindOptimistic
	var (
		got Result
		err error
		dir string
	)
	if ckpt {
		if dir, err = ck.ckptDir(k.Index); err == nil {
			got, err = RunCellResumed(c, dir, 0)
		}
	} else {
		got, err = RunCell(c)
	}
	ck.rep.Cells++
	d := &Divergence{Index: k.Index, Ref: refCell, Got: c}
	if err != nil {
		fmt.Fprintf(ck.digest, "episode %d [%s] ckpt=%v error\n", k.Index, c, ckpt)
		ck.logf("FAIL [%s] run error: %v", c, err)
		d.Details = []string{fmt.Sprintf("run failed: %v", err)}
	} else {
		ck.count(got.Stats)
		fmt.Fprintf(ck.digest, "episode %d [%s] ckpt=%v ref=%016x/%016x got=%d/%016x/%016x\n",
			k.Index, c, ckpt, ck.ref.fp.TraceHash, ck.ref.fp.StateHash,
			got.FP.Committed, got.FP.TraceHash, got.FP.StateHash)
		d.Details = Compare(ck.ref.fp, got.FP)
		if len(d.Details) == 0 {
			if dir != "" {
				os.RemoveAll(dir)
			}
			resumed := ""
			if ckpt {
				resumed = " (resumed from checkpoint)"
			}
			ck.logf("ok   [%s] committed=%d%s", c, got.FP.Committed, resumed)
			return nil
		}
		ck.logf("FAIL [%s] %s", c, strings.Join(d.Details, "; "))
	}
	if dir != "" {
		ck.logf("keeping checkpoint dir %s for episode %d", dir, k.Index)
		d.Details = append(d.Details, fmt.Sprintf("checkpoint dir kept: %s", dir))
	}
	if ck.artifacts != "" && c.Engine == core.KindOptimistic {
		if path, err := AutoRecord(ck.artifacts, c, ck.logf); err != nil {
			ck.logf("auto-record [%s] failed: %v", c, err)
		} else {
			ck.logf("auto-record [%s] wrote %s", c, path)
			d.Artifact = path
		}
	}
	return d
}

// count folds a finished run's kernel counters into the report's totals —
// evidence the fault plans, the memory valve and the live sweeps bit.
func (ck *checker) count(s *core.Stats) {
	if s == nil {
		return
	}
	ck.rep.ForcedRollbacks += s.ForcedRollbacks
	ck.rep.MemThrottles += s.MemThrottles
	ck.rep.InvariantSweeps += s.InvariantSweeps
	ck.rep.PeakLivePE = max(ck.rep.PeakLivePE, s.LivePeak)
}

// ckptDir allocates the checkpoint directory of checkpoint case idx: under
// the artifact directory when there is one (so a failing case's
// checkpoints survive as evidence), in the system temp directory
// otherwise. A kept directory from an earlier run under the same artifact
// directory is cleared first: the case must not resume another run's
// checkpoint.
func (ck *checker) ckptDir(idx int) (string, error) {
	if ck.artifacts == "" {
		return os.MkdirTemp("", "soak-ckpt-")
	}
	dir := filepath.Join(ck.artifacts, fmt.Sprintf("ckpt-ep%04d", idx))
	if err := os.RemoveAll(dir); err != nil {
		return "", err
	}
	return dir, os.MkdirAll(dir, 0o755)
}
