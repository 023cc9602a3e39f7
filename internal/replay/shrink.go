package replay

import (
	"errors"

	"repro/internal/core"
)

// ShrinkResult summarises one shrink: the minimal failing log and how far
// it was reduced.
type ShrinkResult struct {
	// Log is the minimal failing recording — the optimistic run of the
	// reduced injection set, re-recorded during the last failing test, so
	// replaying it under core.KindSequential still exhibits the divergence.
	Log *Log
	// Tests is the number of differential tests the shrinker ran (each is
	// one sequential plus one optimistic run).
	Tests int
	// FromInjections/ToInjections and FromEndTime/ToEndTime describe the
	// reduction.
	FromInjections, ToInjections int
	FromEndTime, ToEndTime       core.Time
}

// Shrink delta-debugs a failing log to a minimal failing one. The failure
// predicate is differential, mirroring simcheck's semantics: a candidate
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
func Shrink(r Runner, lg *Log, logf func(format string, args ...any)) (*ShrinkResult, error) {
	if logf == nil {
		logf = func(string, ...any) {}
	}
	res := &ShrinkResult{
		FromInjections: len(lg.Inject),
		FromEndTime:    lg.Spec.EndTime,
	}
	var best *Log
	var lastErr error
	fails := func(inj []Injection, end core.Time) bool {
		res.Tests++
		spec := lg.Spec
		spec.EndTime = end
		seq, err := run(r, spec, inj, core.KindSequential)
		if err != nil {
			// A candidate that cannot run is not a smaller repro of a
			// divergence; skip it rather than chase build errors.
			lastErr = err
			return false
		}
		opt, err := run(r, spec, inj, core.KindOptimistic)
		if err != nil {
			lastErr = err
			return false
		}
		if len(compareFingerprints(seq.Final, opt.Final)) == 0 {
			return false
		}
		if opt.Recorded != nil {
			best = opt.Recorded
		}
		return true
	}

	cur := lg.Inject
	end := lg.Spec.EndTime
	if !fails(cur, end) {
		if lastErr != nil {
			return nil, lastErr
		}
		return nil, errors.New("replay: log does not fail differentially; nothing to shrink")
	}
	if best != nil {
		// The runner may have resolved (quantized) the requested horizon.
		end = best.Spec.EndTime
	}

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
			cand := make([]Injection, 0, len(cur)-(endIdx-start))
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

	if best == nil {
		return nil, errors.New("replay: shrink produced no recording")
	}
	res.Log = best
	res.ToInjections = len(best.Inject)
	res.ToEndTime = best.Spec.EndTime
	return res, nil
}
