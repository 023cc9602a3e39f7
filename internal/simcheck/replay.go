package simcheck

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/core"
	"repro/internal/replay"
)

// SpecForCell builds the replay spec describing cell c: the complete
// recipe — model, codec, engine shape, scheduling knobs, seed, fault plan
// and mutation — for re-recording the cell's run. EndTime is left zero
// (model default); recording resolves it.
func SpecForCell(c Cell) replay.Spec {
	spec := replay.Spec{
		Model:       c.Model,
		Mutation:    string(c.Mutation),
		PEs:         c.PEs,
		KPs:         c.KPs,
		BatchSize:   cellBatchSize,
		GVTInterval: cellGVTInterval,
		Seed:        c.Seed,
		Faults:      c.Faults,
	}
	if ms, ok := models[c.Model]; ok {
		spec.Codec = ms.codec
	}
	return spec
}

// Record builds spec's model on the optimistic engine, takes its bootstrap
// as the log's injections and records one run of them. The recorded run
// schedules the decoded injections in place of the bootstrap, the same
// path Replay takes, so record and replay cannot drift apart.
func Record(spec replay.Spec) (*replay.Log, error) {
	out, err := runSpec(spec, core.KindOptimistic, plan{harvest: true, record: true})
	if err != nil {
		return nil, err
	}
	return out.log, nil
}

// Replay re-executes lg's injections under eng and compares fingerprints
// against the recording. Verify mode re-runs the optimistic kernel; the
// sequential engine is the oracle. It returns the mismatches (empty means
// the run reproduced the recording exactly); err covers runs that could
// not be built or crashed.
func Replay(lg *replay.Log, eng core.EngineKind) ([]string, error) {
	out, err := runSpec(lg.Spec, eng, plan{inject: lg.Inject})
	if err != nil {
		return nil, err
	}
	return compareToLog(lg, out), nil
}

// compareToLog checks a run against a recording: the final fingerprint,
// plus the recorded per-GVT-round horizons evaluated as prefix hashes of
// the run's own committed trace. The horizons transfer between runs (and
// even engines) because a prefix hash depends only on the committed
// history and the horizon value, not on where this run's rounds happened
// to land.
func compareToLog(lg *replay.Log, out *outcome) []string {
	diffs := Compare(lg.Final, out.FP)
	for i := 1; i < len(lg.Rounds); i++ {
		if lg.Rounds[i].GVT < lg.Rounds[i-1].GVT {
			return append(diffs, "recorded GVT sequence is not nondecreasing — corrupt log?")
		}
	}
	if len(lg.Rounds) == 0 {
		return diffs
	}
	horizons := make([]core.Time, len(lg.Rounds))
	for i, rd := range lg.Rounds {
		horizons[i] = rd.GVT
	}
	fps := out.trace.PrefixHashes(horizons)
	bad := 0
	for i, rd := range lg.Rounds {
		if fps[i] != rd.TraceHash {
			if bad < 4 {
				diffs = append(diffs, fmt.Sprintf(
					"round %d (gvt=%v): trace prefix hash recorded=%016x replay=%016x",
					i, rd.GVT, rd.TraceHash, fps[i]))
			}
			bad++
		}
	}
	if bad > 4 {
		diffs = append(diffs, fmt.Sprintf("... %d of %d rounds diverge", bad, len(lg.Rounds)))
	}
	return diffs
}

// ShrinkResult summarises one shrink: the minimal failing log and how far
// it was reduced.
type ShrinkResult struct {
	// Log is the minimal failing recording — the optimistic run of the
	// reduced injection set, re-recorded during the last failing test, so
	// replaying it under core.KindSequential still exhibits the divergence.
	Log *replay.Log
	// Tests is the number of differential tests the shrinker ran (each is
	// one sequential plus one optimistic run).
	Tests int
	// FromInjections/ToInjections and FromEndTime/ToEndTime describe the
	// reduction.
	FromInjections, ToInjections int
	FromEndTime, ToEndTime       core.Time
}

// Shrink delta-debugs a failing log to a minimal failing one. The failure
// predicate is differential, mirroring the matrix's semantics: a candidate
// (injection subset, horizon) fails when the optimistic run — with the
// spec's mutation and fault plan armed — disagrees with a clean sequential
// run of the same injections. The horizon is shortened by bisection first
// (cheapening every later test), then the injection list is reduced with
// ddmin (Zeller's delta debugging over complements), then the horizon is
// bisected once more against the reduced list.
//
// Shrink keeps the recording produced by the last failing optimistic run
// as the artifact, so it remains a true failing recording even when the
// underlying bug is nondeterministic (the artifact's fingerprints are the
// run that actually failed, not a re-run). logf, when non-nil, receives
// progress lines. It returns an error if the input log does not fail —
// there is nothing to shrink — or if no candidate run could be built.
func Shrink(lg *replay.Log, logf func(format string, args ...any)) (*ShrinkResult, error) {
	if logf == nil {
		logf = func(string, ...any) {}
	}
	res := &ShrinkResult{
		FromInjections: len(lg.Inject),
		FromEndTime:    lg.Spec.EndTime,
	}
	var best *replay.Log
	var lastErr error
	fails := func(inj []replay.Injection, end core.Time) bool {
		res.Tests++
		spec := lg.Spec
		spec.EndTime = end
		seq, err := runSpec(spec, core.KindSequential, plan{inject: inj})
		if err != nil {
			// A candidate that cannot run is not a smaller repro of a
			// divergence; skip it rather than chase build errors.
			lastErr = err
			return false
		}
		opt, err := runSpec(spec, core.KindOptimistic, plan{inject: inj, record: true})
		if err != nil {
			lastErr = err
			return false
		}
		if len(Compare(seq.FP, opt.FP)) == 0 {
			return false
		}
		best = opt.log
		return true
	}

	cur := lg.Inject
	if !fails(cur, lg.Spec.EndTime) {
		if lastErr != nil {
			return nil, lastErr
		}
		return nil, errors.New("simcheck: log does not fail differentially; nothing to shrink")
	}
	// The model may have resolved (quantized) the requested horizon.
	end := best.Spec.EndTime

	bisectHorizon := func() {
		lo := core.Time(0)
		for i := 0; i < 8; i++ {
			mid := (lo + end) / 2
			if !(mid > lo && mid < end) {
				break
			}
			if fails(cur, mid) {
				end = best.Spec.EndTime
				logf("shrink: horizon -> %v (%d injections)", end, len(cur))
			} else {
				lo = mid
			}
		}
	}

	bisectHorizon()

	// ddmin over the injection list: repeatedly try dropping one of n
	// chunks; on success restart with the reduced list, otherwise refine
	// the granularity until chunks are single injections.
	n := 2
	for len(cur) >= 2 && n >= 2 {
		chunk := (len(cur) + n - 1) / n
		reduced := false
		for start := 0; start < len(cur); start += chunk {
			endIdx := start + chunk
			if endIdx > len(cur) {
				endIdx = len(cur)
			}
			cand := make([]replay.Injection, 0, len(cur)-(endIdx-start))
			cand = append(cand, cur[:start]...)
			cand = append(cand, cur[endIdx:]...)
			if len(cand) == len(cur) {
				continue
			}
			if fails(cand, end) {
				cur = cand
				if n > 2 {
					n--
				}
				reduced = true
				logf("shrink: %d injections remain", len(cur))
				break
			}
		}
		if !reduced {
			if chunk == 1 {
				break
			}
			n *= 2
			if n > len(cur) {
				n = len(cur)
			}
		}
	}

	bisectHorizon()

	res.Log = best
	res.ToInjections = len(best.Inject)
	res.ToEndTime = best.Spec.EndTime
	return res, nil
}

// AutoRecord re-records a diverging optimistic cell, shrinks the
// recording to a minimal failing log, and writes it under dir, returning
// the artifact path. If the shrink cannot reproduce the failure (a flaky
// divergence) the unshrunk recording is written instead — a recording of
// the diverging configuration is still the best available artifact. Check
// calls it for every diverging optimistic case when given an artifact
// directory. logf must be non-nil.
func AutoRecord(dir string, c Cell, logf func(format string, args ...any)) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	lg, err := Record(SpecForCell(c))
	if err != nil {
		return "", err
	}
	if res, err := Shrink(lg, logf); err != nil {
		logf("auto-record [%s] shrink failed (%v); keeping full recording", c, err)
	} else {
		logf("auto-record [%s] shrunk %d->%d injections, horizon %v->%v in %d tests",
			c, res.FromInjections, res.ToInjections, res.FromEndTime, res.ToEndTime, res.Tests)
		lg = res.Log
	}
	path := filepath.Join(dir, artifactName(c))
	return path, replay.WriteFile(path, lg)
}

// artifactName renders a cell into a stable, filesystem-safe file name.
func artifactName(c Cell) string {
	name := fmt.Sprintf("%s-%s-pe%d-kp%d-seed%d", c.Model, c.Engine, c.PEs, c.KPs, c.Seed)
	if c.Faults != nil {
		name += fmt.Sprintf("-faults%x", c.Faults.Seed)
	}
	if c.Mutation != MutNone {
		name += "-" + string(c.Mutation)
	}
	return strings.ReplaceAll(name, string(os.PathSeparator), "_") + ".replay"
}
