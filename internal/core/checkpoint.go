package core

import (
	"cmp"
	"slices"
)

// This file is the kernel side of checkpoint/restore: a periodic capture of
// the committed below-GVT state, taken at a GVT commit point, plus the
// resume hooks a fresh simulator uses to continue a captured run.
//
// # What a checkpoint is
//
// The capture happens at a coordinated rendezvous keyed to one GVT
// estimate g: every PE reaches the no-mail-in-flight fixed point, fossil-
// collects everything below g, then rolls every KP back to exactly g —
// re-pending its speculative work and cancelling the events that work had
// sent — and one more fixed point drains those cancellations. At that
// moment the machine IS the committed prefix: every LP state, RNG stream
// and send sequence is exactly what a run that executed only the events
// below g would hold, and the pending queues hold exactly the frontier —
// the events at or beyond g sent by committed causes (or bootstrap). The
// rollback is pure scheduling: the re-pended events re-execute afterwards
// and commit the same results, so an unkilled run is unchanged (the
// differential tests hold checkpointing runs to the sequential oracle).
//
// Rolling back to GVT instead of snapshotting live speculation is what
// keeps the capture consistent and small: speculative state may be wrong
// (that is the point of Time Warp), and in-flight anti-message chains have
// no consistent cut — whereas the committed prefix is immutable by
// definition of GVT.
//
// # Resume
//
// A resumed run is a fresh Simulator whose bootstrap is the checkpointed
// frontier (ScheduleRestored keeps each event's original identity, so the
// total order — and therefore the committed schedule — is untouched) and
// whose LP states, RNG streams and send sequences are reinstated
// (RestoreLP plus the model state codec in internal/replay). Everything
// the resumed run commits has T >= g; its trace appended to the
// checkpoint's trace prefix reproduces the uninterrupted run bit-for-bit,
// which is exactly what the crash harness asserts. The serialization,
// file format and atomic publication live in internal/replay
// (docs/CHECKPOINT.md); the kernel only hands a CheckpointState to the
// sink while the machine is provably quiescent.

// CheckpointLP is one LP's captured committed state. State aliases the
// live lp.State object — the sink must serialize it before returning.
type CheckpointLP struct {
	State    any
	RNG      [4]uint64
	RNGDraws uint64
	SendSeq  uint64
}

// CheckpointEvent is one frontier event: pending, uncommitted, receive
// time at or beyond the checkpoint's GVT, sent by a committed event (src,
// seq from its original send) or by bootstrap (src == NoLP). Data aliases
// the live payload — the sink must serialize it before returning.
type CheckpointEvent struct {
	T    Time
	Dst  LPID
	Src  LPID
	Seq  uint64
	Data any
}

// CheckpointState is the consistent cut handed to a CheckpointSink: the
// committed prefix below GVT plus the frontier that regenerates the rest.
// Frontier is sorted by the kernel's total event order. The kernel reuses
// one CheckpointState, and its LPs and Frontier slices, from one capture to
// the next.
type CheckpointState struct {
	GVT       Time
	Committed int64
	LPs       []CheckpointLP
	Frontier  []CheckpointEvent
}

// CheckpointSink consumes periodic checkpoints. Checkpoint is called on
// PE 0's goroutine while every other PE is parked at a barrier, so the
// state is quiescent for the duration of the call; an error poisons the
// run (it surfaces from Run on every PE). The sink must not retain cs or
// anything reachable from it after returning: cs aliases live LP states
// and payloads, and the kernel refills it at the next capture.
//
// A sink may finish its work after Checkpoint returns (replay's
// CheckpointWriter publishes on a background goroutine). Such a sink also
// has a Flush() error method: Run calls it once, after every PE has
// joined and on every return path, and a Flush error fails the run. So a
// nil error from Run still means the last capture is published.
type CheckpointSink interface {
	Checkpoint(cs *CheckpointState) error
}

// SetCheckpoint arms periodic checkpointing: every everyRounds completed
// GVT rounds (at least 1) with a positive estimate, the kernel rendezvouses,
// rolls back to the estimate and hands the committed state to sink. If sink
// also has a Flush() error method, Run calls it once after the PEs have
// joined (see CheckpointSink). Must be called before Run; a nil sink
// disarms. Like SetRecord, this is how harnesses reach a model-built
// simulator.
func (s *Simulator) SetCheckpoint(sink CheckpointSink, everyRounds int) {
	if s.ran {
		panic("core: SetCheckpoint after Run")
	}
	s.ckptSink = sink
	if everyRounds < 1 {
		everyRounds = 1
	}
	s.ckptEvery = int64(everyRounds)
}

// checkpointDue is PE 0's per-round arming decision, made in completeRound
// while it holds the returned token. The estimate must have advanced past
// the last capture's (0 before the first: there is nothing committed to
// capture at 0). The committed prefix and frontier at
// a standing estimate are the ones already on disk, and the rendezvous
// unwinds everything at or beyond the estimate: a PE that needs more than
// ckptEvery rounds to get through one timestamp's events would have them
// all re-pended by every capture and the estimate would never move.
// Requiring an advance guarantees commits between captures at any cadence.
// A finishing round never checkpoints (the run is about to produce its
// final state anyway).
func (s *Simulator) checkpointDue(round int64, est Time) bool {
	return s.ckptSink != nil && est > s.ckptLastGVT && est < s.cfg.EndTime &&
		round-s.ckptLastRound >= s.ckptEvery
}

// checkpointRendezvous is the all-PE capture protocol, entered by every PE
// after the same GVT round (the ckptPending flag set by completeRound). gvt
// is the current published estimate, stable for the duration — only PE 0
// advances it and PE 0 is in here.
func (pe *PE) checkpointRendezvous(gvt Time) error {
	s := pe.sim
	// Quiesce: drain every lane and outbox to the sent == delivered fixed
	// point, so all mail is resident in pending queues and the straggler/
	// cancellation state below is complete.
	if err := pe.commsFixedPoint(); err != nil {
		return err
	}
	// Commit everything below the estimate (idempotent where this PE already
	// collected against it), then unwind everything at or beyond it. The
	// rollback key sorts before every real event at time gvt, so each KP's
	// whole speculative suffix re-pends and its sends are cancelled; KPs end
	// empty (live() == 0, hasLast false), LP states/RNGs/sequences end at
	// their committed values.
	pe.fossilCollect(gvt)
	if gvt > pe.lastFossil {
		pe.lastFossil = gvt
	}
	key := eventKey{recvTime: gvt, dst: -1 << 31, src: -1 << 31}
	for _, kp := range pe.kps {
		pe.rollback(kp, key)
	}
	// Drain the anti-messages the rollback just posted. Every KP is empty,
	// so arriving cancellations only mark pending events — no cascades —
	// and the fixed point leaves the frontier fully resolved: statePending
	// events are exactly the committed-cause sends, stateCanceled husks are
	// the rolled-back speculation's.
	if err := pe.commsFixedPoint(); err != nil {
		return err
	}
	// Every PE sorts its own share of the frontier in parallel; the barrier
	// then orders those writes before PE 0's merge reads them.
	pe.collectFrontier()
	if err := pe.await(); err != nil {
		return err
	}
	if pe.id == 0 {
		err := s.captureCheckpoint(gvt)
		s.ckptPending.Store(false)
		s.ckptLastRound = s.roundsDone.Load()
		s.ckptLastGVT = gvt
		if err != nil {
			s.fail(err)
			return err
		}
	}
	// Release barrier: the other PEs wait here while PE 0 captures, then
	// everyone resumes and re-executes the unwound suffix.
	return pe.await()
}

// collectFrontier gathers this PE's share of the frontier — its still-
// pending events; cancelled husks are rolled-back speculation, reclaimed
// later — into its reused ckptRun and sorts it by the kernel's total order.
// Runs on every PE after the rendezvous's second fixed point.
func (pe *PE) collectFrontier() {
	pe.ckptRun = pe.ckptRun[:0]
	pe.pending.Each(func(ev *Event) {
		if ev.state == statePending {
			pe.ckptRun = append(pe.ckptRun, CheckpointEvent{
				T: ev.recvTime, Dst: ev.dst, Src: ev.src, Seq: ev.seq, Data: ev.Data,
			})
		}
	})
	slices.SortFunc(pe.ckptRun, compareCheckpointEvents)
}

// compareCheckpointEvents is the kernel's total event order (Event.before)
// on frontier events, as a three-way comparison.
func compareCheckpointEvents(a, b CheckpointEvent) int {
	if c := cmp.Compare(a.T, b.T); c != 0 {
		return c
	}
	if c := cmp.Compare(a.Dst, b.Dst); c != 0 {
		return c
	}
	if c := cmp.Compare(a.Src, b.Src); c != 0 {
		return c
	}
	return cmp.Compare(a.Seq, b.Seq)
}

// captureCheckpoint fills the reused CheckpointState and hands it to the
// sink. PE 0 only, between the rendezvous's collection barrier and its
// release barrier: every other PE is blocked at the release barrier, so the
// cross-PE reads below are barrier-ordered.
func (s *Simulator) captureCheckpoint(gvt Time) error {
	cs := &s.ckptState
	cs.GVT, cs.Committed = gvt, 0
	for _, pe := range s.pes {
		cs.Committed += pe.stats.Committed //simlint:crosspe barrier-ordered read inside the checkpoint rendezvous
	}
	cs.LPs = slices.Grow(cs.LPs[:0], len(s.lps))[:len(s.lps)]
	for i, lp := range s.lps {
		cs.LPs[i] = CheckpointLP{
			State:    lp.State,
			RNG:      lp.rng.State(),
			RNGDraws: lp.rng.Draws(),
			SendSeq:  lp.sendSeq,
		}
	}
	runs := make([][]CheckpointEvent, len(s.pes))
	for i, pe := range s.pes {
		runs[i] = pe.ckptRun //simlint:crosspe barrier-ordered read: the collection barrier orders each PE's sorted run before this merge
	}
	cs.Frontier = mergeRuns(cs.Frontier[:0], runs)
	return s.ckptSink.Checkpoint(cs)
}

// mergeRuns appends the k-way merge of the sorted runs to dst, consuming
// runs (each entry is advanced past what it contributed). Runs are few —
// one per PE — so each step scans the heads.
func mergeRuns(dst []CheckpointEvent, runs [][]CheckpointEvent) []CheckpointEvent {
	n := 0
	for _, r := range runs {
		n += len(r)
	}
	dst = slices.Grow(dst, n)
	for {
		best := -1
		for i, r := range runs {
			if len(r) > 0 && (best < 0 || compareCheckpointEvents(r[0], runs[best][0]) < 0) {
				best = i
			}
		}
		if best < 0 {
			return dst
		}
		dst = append(dst, runs[best][0])
		runs[best] = runs[best][1:]
	}
}

// RestoreLP reinstates one LP's checkpointed RNG stream and send sequence
// (the model state itself is restored in place through lp.State by the
// caller, with its replay.Codec's DecodeState). Only legal before Run.
func (s *Simulator) RestoreLP(id LPID, state [4]uint64, draws, sendSeq uint64) error {
	if s.ran {
		panic("core: RestoreLP after Run")
	}
	if !s.has(id) {
		panic("core: RestoreLP for unknown LP")
	}
	lp := s.lps[id]
	if err := lp.rng.Restore(state, draws); err != nil {
		return err
	}
	lp.sendSeq = sendSeq
	return nil
}

// ScheduleRestored enqueues one checkpointed frontier event before the run
// starts, preserving its original identity (src — NoLP for bootstrap —
// and per-source sequence), so the kernel's total order places it exactly
// where the original run did. Use after DropBootstrap when resuming; do not
// mix with Schedule, whose events draw from the bootstrap sequence.
func (s *Simulator) ScheduleRestored(dst LPID, t Time, src LPID, seq uint64, data any) {
	s.enqueue("ScheduleRestored", dst, t, src, seq, data)
}
