package core

// This file is the optimism controller: the one place that decides how far
// past GVT a PE may execute. Every optimistic PE owns one, and the PE loop
// asks it once per pass for its horizon (horizon, below) and applies no other
// clamp. It folds three bounds into one Δ-window past GVT (ROSS's
// max_opt_lookahead): the caller's cap (Config.MaxOptimism, else the whole
// run), the adaptive window that tracks rollback efficiency, and the
// fossil-collection pressure valve. All three are pure scheduling policy —
// they change *when* events execute, never what commits — so every
// differential harness holds them to the same sequential oracle.
//
// The adaptive policy is TCP-shaped, sampled once per GVT round over the
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
// at GVT itself executable and the run deadlock-free.
//
// The pressure valve is cancelback-lite: a PE holding its live-event budget
// of executed-but-uncommitted events (Simulator.SetMemoryBound) runs only
// below GVT plus a fixed fraction of the floor until fossil collection
// drains it back under, so it stops allocating until commitment catches
// up. Because that width is below the floor, the valve narrows the horizon
// even where the window is pinned at the floor (one processor), and because
// it is positive the event at GVT stays executable.

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
	// valveFloorDiv sets the pressure valve's width as a fraction of the
	// floor.
	valveFloorDiv = 2
)

// optimismController holds one PE's horizon state. All fields are owned by
// the PE's goroutine; the controller is only ever consulted between
// batches.
type optimismController struct {
	// end is the run's horizon and cap the caller's bound on the window
	// (MaxOptimism, else end).
	end Time
	cap Time
	// window moves between min and max.
	window Time
	min    Time
	max    Time
	// thresh is the congestion threshold: the window grows multiplicatively
	// below it and additively at or above it. Starts at the cap (everything
	// is slow start) and tracks the halved window on every narrow.
	thresh Time
	// budget is the pressure valve's live-event bound (0: disarmed).
	budget int64
	// procMark/rbMark are the counter values at the last adjustment.
	procMark int64
	rbMark   int64
}

// newOptimismController derives the window bounds from the run's horizon.
// The cap is MaxOptimism when the caller set one (the adaptive window then
// only ever tightens it) and the full horizon otherwise.
//
// On a single-PE simulator the controller is fixed-width at the cap: one PE
// executes in timestamp order and cannot roll back, so adapting would only
// cap batch depth for nothing, and the cap alone reproduces the static
// MaxOptimism bound.
//
// Otherwise the floor keeps a throttled PE executing a strictly positive
// window past GVT. The window starts at the floor and earns width: a PE
// that never rolls back doubles to the cap within optFloorDiv-log2 rounds
// (a few milliseconds of real time), whereas starting wide costs a full
// cascade storm up front on tightly coupled workloads — the controller
// would have to narrow *through* the storm it just caused, and with GVT
// rounds that never stop the world nothing else quenches it.
//
// cpus is the scheduler parallelism available to the PE goroutines
// (runtime.GOMAXPROCS in production). With one processor the ceiling
// collapses to the floor, pinning the window there: optimism's entire value
// is converting idle processors into speculative progress, and on a
// timesliced core there are no idle processors — every speculated event
// displaces critical-path work and still carries rollback risk. The
// observe dynamics then run unchanged against max == min, so the window
// provably cannot move.
func newOptimismController(cfg *Config, cpus int) optimismController {
	cap := cfg.MaxOptimism
	if cap <= 0 {
		cap = cfg.EndTime
	}
	min, max := cap, cap
	if cfg.NumPEs > 1 {
		min = cap / optFloorDiv
		if min <= 0 {
			min = 1
		}
		if cpus <= 1 {
			max = min
		}
	}
	return optimismController{end: cfg.EndTime, cap: cap,
		window: min, min: min, max: max, thresh: max}
}

// horizon returns the virtual time below which the PE may execute this
// pass, given the current GVT estimate and the PE's live-event count.
// clamped reports that the adaptive window, not the cap or the end of the
// run, set the horizon; throttled that the pressure valve narrowed it
// further. A PE counts each in its statistics.
func (oc *optimismController) horizon(gvt Time, live int64) (h Time, clamped, throttled bool) {
	h = oc.end
	if c := gvt + oc.cap; c < h {
		h = c
	}
	if w := gvt + oc.window; w < h {
		h, clamped = w, true
	}
	if oc.budget > 0 && live >= oc.budget {
		if v := gvt + oc.min/valveFloorDiv; v < h {
			h, throttled = v, true
		}
	}
	return h, clamped, throttled
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
