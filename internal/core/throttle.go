package core

// This file is the adaptive optimism throttle, armed on every multi-PE run: a
// per-PE controller that widens and narrows the speculation horizon from
// observed rollback efficiency, generalizing the static MaxOptimism bound
// and the memory valve's fixed PressureWindow. The controller is pure
// scheduling policy — like both of those, it changes *when* events execute,
// never what commits — so every differential harness holds it to the same
// sequential oracle.
//
// The policy is TCP-shaped, sampled once per GVT round over the
// interval's executions. Efficiency (1 - rolledBack/processed over the
// interval) at or above optWidenAt grows the window: doubling below the
// congestion threshold (slow start), one floor-unit at a time at or above
// it (probing). Efficiency below optNarrowAt halves the window and moves
// the threshold down to the halved value, so the next climb switches to
// additive probing *before* the width that just stormed. The band between
// leaves the window alone so mixed intervals do not oscillate it. Pure
// multiplicative-increase is the wrong shape here: success at w says "try
// 2w", so the controller repeatedly overshoots the workload's coupling
// width and every overshoot costs a rollback storm plus the slow halving
// walk back down. The floor stays strictly positive, which keeps the event
// at GVT itself executable and the run deadlock-free (the same argument as
// the memory valve's window).

const (
	// optSampleMin is the minimum number of new executions between window
	// adjustments; smaller intervals are folded into the next one so a
	// near-idle GVT round cannot swing the window on a handful of events.
	optSampleMin = 64
	// optWidenAt and optNarrowAt bound the efficiency dead band.
	optWidenAt  = 0.85
	optNarrowAt = 0.80
	// optFloorDiv sets the window floor as a fraction of the cap.
	optFloorDiv = 256
)

// optimismController holds one PE's adaptive window. All fields are owned
// by the PE's goroutine; the controller is only ever consulted between
// batches.
type optimismController struct {
	window Time
	min    Time
	max    Time
	// thresh is the congestion threshold: the window grows multiplicatively
	// below it and additively at or above it. Starts at the cap (everything
	// is slow start) and tracks the halved window on every narrow.
	thresh Time
	// procMark/rbMark are the counter values at the last adjustment.
	procMark int64
	rbMark   int64
}

// newOptimismController derives the window bounds from the run's horizon:
// the cap is MaxOptimism when the caller set one (the adaptive window then
// only ever tightens it) and the full horizon otherwise; the floor keeps a
// throttled PE executing a strictly positive window past GVT. The window
// starts at the floor and earns width: a PE that never rolls back doubles
// to the cap within optFloorDiv-log2 rounds (a few milliseconds of real
// time), whereas starting wide costs a full cascade storm up front on
// tightly coupled workloads — the controller would have to narrow *through*
// the storm it just caused, and with GVT rounds that never stop the world
// nothing else quenches it.
//
// cpus is the scheduler parallelism available to the PE goroutines
// (runtime.GOMAXPROCS in production). With one processor the cap collapses
// to the floor, pinning the window there: optimism's entire value is
// converting idle processors into speculative progress, and on a
// timesliced core there are no idle processors — every speculated event
// displaces critical-path work and still carries rollback risk. The
// observe dynamics then run unchanged against max == min, so the window
// provably cannot move.
func newOptimismController(cfg *Config, cpus int) *optimismController {
	max := cfg.MaxOptimism
	if max <= 0 {
		max = cfg.EndTime
	}
	min := max / optFloorDiv
	if min <= 0 {
		min = 1
	}
	if cpus <= 1 {
		max = min
	}
	return &optimismController{window: min, min: min, max: max, thresh: max}
}

// observe feeds the controller the PE's cumulative processed/rolled-back
// counters (called once per GVT round) and adjusts the window when the
// interval holds enough samples.
func (oc *optimismController) observe(processed, rolledBack int64) {
	dp := processed - oc.procMark
	if dp < optSampleMin {
		return
	}
	drb := rolledBack - oc.rbMark
	oc.procMark, oc.rbMark = processed, rolledBack
	eff := 1 - float64(drb)/float64(dp)
	switch {
	case eff >= optWidenAt:
		if oc.window < oc.thresh {
			oc.window *= 2
			if oc.window > oc.thresh {
				oc.window = oc.thresh
			}
		} else {
			oc.window += oc.min
		}
		if oc.window > oc.max {
			oc.window = oc.max
		}
	case eff < optNarrowAt:
		oc.window /= 2
		if oc.window < oc.min {
			oc.window = oc.min
		}
		oc.thresh = oc.window
	}
}
