package core

import (
	"sync/atomic"
	"time"
)

// This file is the kernel's GVT: a Mattern-style token circulating
// PE 0 → 1 → … → N-1 → PE 0. No PE ever blocks on a barrier — each keeps
// executing, learns new estimates from the published GVT word, and
// fossil-collects on its own schedule. The estimate plays the role ROSS's
// Fujimoto-style round plays on shared memory: a lower bound on every
// receive time that can still roll anything back.
//
// # Transient messages: sender-side coverage
//
// The classical schemes make the receiver prove that every message sent
// before the cut has arrived — by coloring messages and counting, or (the
// FIFO-channel variant) by letting the token queue behind the data. Both
// stall the round behind mail backlogs: a visit cannot complete until the
// receiver drains everything the senders had queued, which under rollback
// storms is exactly when the backlogs are deepest and a fresh GVT is most
// needed. This kernel inverts the obligation: the *sender* covers its own
// in-flight mail, so a token visit never waits on delivery at all.
//
// Each PE keeps, per destination d:
//
//   - outMin[d]: the minimum receive time of all mail posted to d in the
//     current "epoch" (anti-messages count at their target's receive time,
//     which bounds everything the cancellation can cause);
//   - epochs[d]: closed epochs still possibly in flight, each tagged with
//     the destination lane's tail index at close time.
//
// At its token visit the PE contributes min(pending minimum, every open
// and closed epoch minimum) — so any message of ours that might be
// undelivered is counted by us, no matter whose cut it crosses. Then it
// retires coverage exactly: a closed epoch is delivered once the lane's
// consumer-owned head index passes the epoch's recorded tail, and the open
// epoch closes only when the outbox to d is empty (otherwise some of its
// mail has no lane index yet and it keeps accumulating). The lane indices
// make the acking exact — no tags, no counts, no second lap.
//
// # Validity
//
// Round r's cut at PE p is its token visit, at wall time T_r(p); every
// round-(r+1) visit happens after every round-r visit (the token returns
// to PE 0 in between). Consider a message m from s to d:
//
//   - Posted after s's round-r visit: m is caused by an event s executes
//     (or rolls back) after its cut; by induction over causal chains —
//     sends carry strictly positive delay, anti-messages carry their
//     target's receive time — its receive time is bounded below by the
//     round's fold.
//   - Posted before s's round-r visit and not yet retired: counted in s's
//     round-r contribution directly.
//   - Posted before s's round-r visit and retired earlier: retirement
//     means the lane head passed m before some visit ≤ T_r(s), so m was
//     *delivered* before T_r(s) — and therefore before every round-(r+1)
//     cut. By d's round-(r+1) visit, m is in d's pending queue (counted in
//     its pending minimum) or processed (covered by the induction above).
//     Retired coverage is thus only ever needed for one more round, and
//     the round that retires it has already folded it in.
//
// Estimates may transiently fold a stale epoch minimum for mail that was
// delivered, processed and committed rounds ago; completeRound clamps the
// publish to the current GVT, which stays valid because a published floor
// never regresses.
//
// The token's non-holder fields are plain: only the PE named by holder may
// touch them, and the holder store/load chain hands the happens-before
// edge from each PE's visit to the next.
type gvtToken struct {
	_ [56]byte // keep the Simulator's GVT atomics off the holder's line
	// holder is the ID of the PE currently holding the token. Its
	// store/load pairs are the only synchronisation the token uses.
	//
	//simlint:publishes min
	holder atomic.Int64
	_      [56]byte // the plain fields below are single-owner; keep them off the holder's line
	// min is the running fold of this round's contributions.
	min Time //simlint:owned
	// round counts launches; completions are published via sim.roundsDone.
	round int64 //simlint:owned
}

// outEpoch is one closed batch of sender-side coverage: mail posted to one
// destination whose receive-time minimum is min, all of it pushed into the
// destination lane at indices below tail. The epoch is retired — provably
// delivered — once the lane's head index reaches tail.
type outEpoch struct {
	tail uint64
	min  Time
}

// maxEpochs bounds the per-destination coverage ledger; at the cap the two
// oldest epochs merge (min of mins, the newer tail), which only lengthens
// coverage. The lane bounds live epochs at laneCap messages regardless;
// this just keeps the worst case tidy.
const maxEpochs = 8

// asyncPass is the per-pass GVT step, called from the run loop after every
// drain/flush. It is the whole algorithm from one PE's view: notice
// termination, fossil-collect up to any newly published estimate, and move
// the token along if we hold it. Returns done=true when the run is over and
// this PE has committed everything.
func (pe *PE) asyncPass() (bool, error) {
	s := pe.sim
	if s.finished.Load() {
		return true, pe.asyncShutdown()
	}
	if gvt := s.GVT(); gvt > pe.lastFossil {
		pe.lastFossil = gvt
		pe.fossilCollect(gvt)
		if s.paranoid {
			if err := pe.checkInvariants(gvt); err != nil {
				s.fail(err)
				return false, err
			}
		}
	}
	if n := s.roundsDone.Load(); n != pe.obsRound {
		// Once per completed round: refill the speculation quota and feed
		// the optimism controller. The controller observes rounds, not GVT
		// advances: rounds complete even while the estimate is pinned, and
		// a rollback storm pins it — narrowing the window is exactly what
		// un-pins it, so gating the controller on advances would deadlock
		// its own feedback loop.
		pe.obsRound = n
		pe.sinceGVT = 0
		pe.opt.observe(pe.stats.Processed, pe.stats.RolledBackEvents)
	}
	if s.ckptPending.Load() {
		// A completed round armed a checkpoint: rendezvous before anything
		// else — in particular before PE 0 can launch the next round, which
		// is what makes the flag's lifetime race-free (only PE 0 sets it,
		// and PE 0 is held in the rendezvous until the capture is done).
		if err := pe.checkpointRendezvous(s.GVT()); err != nil {
			return false, err
		}
	}
	if s.token.holder.Load() == int64(pe.id) {
		pe.tokenPass()
	}
	return false, nil
}

// tokenPass advances the token while this PE holds it: complete a returned
// round (PE 0), launch a requested one (PE 0), or contribute and forward.
// A visit never waits — the sender-side coverage ledger means there is no
// delivery condition to block on.
//
//simlint:crosspe token-ordered: only the holder touches the token's plain fields, and forwardToken's holder store hands the happens-before edge to the next visit
func (pe *PE) tokenPass() {
	s := pe.sim
	t := &s.token
	if pe.id == 0 {
		if pe.tokenLaunched {
			// The token circulated back: the fold is the new GVT.
			pe.tokenLaunched = false
			pe.completeRound(t.min)
			return
		}
		// Token parked here between rounds; launch only when someone asked
		// (idle escalation, optimism throttle, or the batch quota — all of
		// which funnel through requestGVT and its GVTDelay suppression).
		if !s.gvtRequested.Load() {
			return
		}
	}

	// Contribute: everything this PE can still affect is bounded by its
	// live pending minimum and its in-flight coverage ledger.
	local := TimeInfinity
	if ev, ok := pe.nextLive(); ok {
		local = ev.recvTime
	}
	for d := range pe.outMin {
		if m := pe.outMin[d]; m < local {
			local = m
		}
		for _, e := range pe.epochs[d] {
			if e.min < local {
				local = e.min
			}
		}
	}
	pe.retireEpochs()
	pe.lastContrib = local
	// Record whether this visit found the PE idle: parking is allowed only
	// after a round whose visit here saw no runnable work completes — that
	// round's estimate then reflects this PE's idleness, so if the whole
	// machine has drained the round discovers termination rather than
	// leaving every PE asleep with no round pending.
	pe.visitIdle = pe.idleMarked
	pe.visitDone = s.roundsDone.Load() + 1
	if pe.id == 0 {
		t.min = local
		t.round++
		pe.tokenLaunched = true
		pe.roundStart = time.Now()
	} else if local < t.min {
		t.min = local
	}
	pe.forwardToken()
}

// retireEpochs advances the coverage ledger at a token visit, after this
// visit's contribution folded every live entry: epochs whose lane range the
// consumer has drained are dropped, and the open epoch closes against the
// lane's current tail when the outbox holds nothing destined there. Both
// lane indices are safe here — head is the consumer's atomic, tail is our
// own producer word.
func (pe *PE) retireEpochs() {
	s := pe.sim
	for d := range pe.outMin {
		if d == pe.id {
			continue
		}
		lane := &s.pes[d].lanes[pe.id]
		head := lane.head.Load()
		es := pe.epochs[d]
		k := 0
		for _, e := range es {
			if e.tail > head {
				es[k] = e
				k++
			}
		}
		es = es[:k]
		if pe.outMin[d] < TimeInfinity && len(pe.outbox.bufs[d]) == 0 {
			if tail := lane.tail.Load(); tail > head {
				if len(es) == maxEpochs {
					if es[0].min < es[1].min {
						es[1].min = es[0].min
					}
					es = append(es[:0], es[1:]...)
				}
				es = append(es, outEpoch{tail: tail, min: pe.outMin[d]})
			}
			// tail == head means the whole epoch is already delivered.
			pe.outMin[d] = TimeInfinity
		}
		pe.epochs[d] = es
	}
}

// forwardToken hands the token to the next PE in the ring. The holder
// store publishes every plain write this visit made; the wake covers a
// parked successor — token arrival is one of the things a parked PE must
// see promptly, because its contribution is what lets the round (and
// therefore termination detection) complete.
func (pe *PE) forwardToken() {
	s := pe.sim
	next := pe.id + 1
	if next == len(s.pes) {
		next = 0
	}
	s.token.holder.Store(int64(next))
	if next != pe.id {
		s.pes[next].wake()
	}
}

// completeRound publishes a finished round's estimate: PE 0 only, while
// holding the returned token. The clamp keeps publishes monotone (stale
// retired-mail minima can fold in, see the file comment; and the replay
// subsystem requires a nondecreasing recorded GVT sequence).
func (pe *PE) completeRound(est Time) {
	s := pe.sim
	if cur := s.GVT(); est < cur {
		est = cur
	}
	advanced := est > s.GVT()
	s.setGVT(est)
	n := s.roundsDone.Add(1)
	if rec := s.record; rec != nil {
		rec.GVTRound(n, est)
	}
	s.gvtRequested.Store(false)
	pe.sinceGVT = 0
	pe.stats.GVTLatency += time.Since(pe.roundStart)
	if est >= s.cfg.EndTime {
		s.finished.Store(true)
		s.wakeAll()
	} else if s.checkpointDue(n, est) {
		// Arm the checkpoint rendezvous: every PE's next asyncPass — PE 0's
		// included, before it can launch another round — routes into it.
		// The wake covers parked PEs, and park's recheck keeps anyone from
		// sleeping through the flag.
		s.ckptPending.Store(true)
		s.wakeAll()
	} else if advanced {
		// Parked PEs fossil-collect (and memory-throttled ones re-open
		// their windows) against the new estimate.
		s.wakeAll()
	}
}

// asyncShutdown is the termination path. The final estimate proved no
// rollback can reach below the end time, but mail at or beyond it may
// still sit in lanes and outboxes; one barrier-synchronized drain to the
// sent==delivered fixed point (the only barrier outside the checkpoint
// rendezvous, and the machine is done — nothing is stalled by it) parks
// that mail in pending queues so the comms conservation invariants hold at
// exit, then the unconditional final fossil collection commits everything
// processed. Drained events here are all at or beyond the end time: they
// insert as pending (never executing, never rolling anything back) and
// their anti-messages cancel pending events — no new speculation occurs.
func (pe *PE) asyncShutdown() error {
	s := pe.sim
	if err := pe.commsFixedPoint(); err != nil {
		return err
	}
	pe.fossilCollect(TimeInfinity)
	if s.paranoid {
		if err := pe.checkInvariants(TimeInfinity); err != nil {
			s.fail(err)
			return err
		}
	}
	return nil
}
