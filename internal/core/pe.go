package core

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"time"

	"repro/internal/eventq"
)

// minIdleThreshold is the number of empty scheduler passes before an idle
// PE escalates: first to a GVT request, then — once a round has come and
// gone with the PE still idle — to parking (see mailbox.go).
const minIdleThreshold = 16

// PE is a processing element: one goroutine owning a set of KPs (and their
// LPs), a pending-event queue, and per-sender inbound lanes for events
// arriving from other PEs (see mailbox.go). All state reachable from a
// PE's LPs is only ever touched by that PE's goroutine.
type PE struct {
	id  int
	sim *Simulator

	pending *eventq.Ladder[*Event] //simlint:owned
	lanes   []lane                 // inbound SPSC rings, indexed by sender PE: the lanes themselves are the sync structure
	outbox  outbox                 //simlint:owned
	batch   []mail                 //simlint:owned
	pool    eventPool              //simlint:owned
	kps     []*KP                  //simlint:owned

	// reclaimBound and reclaim are reclaimCanceled's reused drain bound
	// and callback (bindReclaim).
	reclaimBound Event        //simlint:owned
	reclaim      func(*Event) //simlint:owned

	parked atomic.Bool
	wakeCh chan struct{}

	sinceGVT  int
	idleSpins int

	// GVT token state (see gvt_async.go). outMin[d] is the minimum receive
	// time of mail posted to PE d in the open coverage epoch; epochs[d]
	// holds the closed epochs still possibly in flight. Both are owner-only
	// — the sender-side coverage scheme needs no cross-PE state beyond the
	// lane indices the comms layer already publishes. lastFossil is the GVT
	// estimate this PE last fossil-collected against.
	outMin     []Time       //simlint:owned
	epochs     [][]outEpoch //simlint:owned
	lastFossil Time         //simlint:owned
	// lastContrib is the local minimum this PE folded into the token at
	// its most recent visit: a standing promise that nothing it can still
	// affect lies below that time. Natural execution honours it by
	// causality (every rollback is triggered by covered mail); the forced-
	// rollback injector must be clamped to it explicitly.
	lastContrib Time //simlint:owned
	// tokenLaunched/roundStart are PE 0's round bookkeeping. idleMarked is
	// set while the PE sits in its idle escalation; visitIdle/visitDone
	// record whether the last token visit found it idle and which
	// completed-round count that visit belongs to — the parking
	// precondition.
	tokenLaunched bool
	roundStart    time.Time
	idleMarked    bool
	visitIdle     bool
	visitDone     int64
	// obsRound is the completed-round count the optimism controller last
	// observed at, so each round feeds it exactly one sample.
	obsRound int64

	// opt is the optimism controller that sets this PE's horizon each pass
	// (see throttle.go). Held by value: it is PE-owned and read every pass.
	opt optimismController

	// faults is non-nil only when a plan is armed (SetFaults); see faults.go.
	faults *peFaults

	// liveEvents is the pressure valve's gauge: this PE's current count of
	// executed-but-uncommitted events, maintained exactly (+1 at execute,
	// -1 per rollback unwind, -committed at fossil collection) so it always
	// equals the sum of kp.live() over this PE's KPs — which is also the
	// number of live state saves under copy state saving (one snapshot per
	// uncommitted event). checkInvariants asserts the identity.
	liveEvents int64 //simlint:owned
	// sweepSince counts scheduler passes since the last in-run invariant
	// sweep (SetParanoid).
	sweepSince int

	// Statistics (owned by this PE; read by others only after Run).
	// mailSent and mailReceived double as this PE's shards of the global
	// in-flight message accounting: the comms fixed point sums them across
	// PEs between barriers (gvt.go), so no live global counter — and no
	// cross-PE cache-line ping-pong — is needed.
	//
	//simlint:sharded
	processed          int64
	committed          int64         //simlint:sharded
	rolledBackEvents   int64         //simlint:sharded
	primaryRollbacks   int64         //simlint:sharded
	secondaryRollbacks int64         //simlint:sharded
	mailSent           int64         //simlint:sharded
	mailReceived       int64         //simlint:sharded
	canceledPending    int64         //simlint:sharded
	forcedRollbacks    int64         //simlint:sharded
	batchesFlushed     int64         //simlint:sharded
	batchedMessages    int64         //simlint:sharded
	mailboxPeak        int64         //simlint:sharded
	livePeak           int64         //simlint:sharded
	memThrottles       int64         //simlint:sharded
	invariantSweeps    int64         //simlint:sharded
	parks              int64         //simlint:sharded
	wakes              atomic.Int64  // bumped by the waker, not the owner: atomic, so not sharded
	busy               time.Duration //simlint:sharded
	gvtWait            time.Duration //simlint:sharded
	gvtLatency         time.Duration //simlint:sharded
	optClamps          int64         //simlint:sharded

	// ckptRun is this PE's share of a checkpoint's frontier, sorted and
	// reused from one capture to the next (collectFrontier). Cold: written
	// once per capture, read by PE 0's merge behind the collection barrier.
	ckptRun []CheckpointEvent //simlint:owned
}

// ID returns the PE index.
func (pe *PE) ID() int { return pe.id }

// free returns a dead event (committed or cancelled-and-discarded) and its
// payload to this PE's pool. Only the PE owning the event's destination
// may call it — which is exactly the PE whose goroutine proves the event
// dead.
func (pe *PE) free(ev *Event) { pe.pool.put(ev) }

// insert adds an event to this PE's pending queue. If the event is in the
// past of its KP, the KP is first rolled back to just before it (a primary
// rollback).
func (pe *PE) insert(ev *Event) {
	if pe.sim.paranoid && ev.state == stateFree {
		panic("core: use after free: inserting pooled event " + ev.String())
	}
	kp := pe.sim.lps[ev.dst].kp
	if kp.hasLast && ev.beforeKey(kp.lastKey) {
		n := pe.rollback(kp, ev.key())
		kp.primaryRollbacks++
		pe.primaryRollbacks++
		if rec := pe.sim.record; rec != nil {
			rec.Rollback(pe.id, kp.id, n, false, false)
		}
	}
	ev.state = statePending
	pe.pending.Push(ev)
}

// cancelLocal resolves an anti-message whose target lives on this PE.
func (pe *PE) cancelLocal(ev *Event) {
	switch ev.state {
	case statePending:
		// Lazy removal: the event stays queued and is discarded when it
		// surfaces at the top.
		ev.state = stateCanceled
		pe.canceledPending++
	case stateProcessed:
		kp := pe.sim.lps[ev.dst].kp
		n := pe.rollback(kp, ev.key())
		kp.secondaryRollbacks++
		pe.secondaryRollbacks++
		if rec := pe.sim.record; rec != nil {
			rec.Rollback(pe.id, kp.id, n, true, false)
		}
		// The rollback returned the event to pending; discard it there.
		ev.state = stateCanceled
		pe.canceledPending++
	case stateCanceled:
		panic("core: event cancelled twice")
	case stateCommitted:
		panic("core: cancellation for a committed event (GVT violation)")
	case stateFree:
		panic("core: use after free: cancellation for pooled event " + ev.String())
	default:
		panic("core: cancellation for an unscheduled event")
	}
}

// rollback unprocesses every event in kp at or after key, in reverse
// processing order: the model's Reverse handler runs, random draws are
// rewound, the send sequence is restored, and every event the unprocessed
// event had sent is cancelled (cascading to other PEs as anti-messages).
// Unprocessed events return to the pending queue for re-execution. It
// returns the number of events reversed.
func (pe *PE) rollback(kp *KP, key eventKey) int {
	n := 0
	for {
		tail := kp.tail()
		if tail == nil || tail.beforeKey(key) {
			break
		}
		kp.popTail()
		pe.reverse(tail)
		tail.state = statePending
		pe.pending.Push(tail)
		kp.rolledBackEvents++
		pe.rolledBackEvents++
		pe.liveEvents--
		n++
	}
	return n
}

// reverse undoes one processed event.
func (pe *PE) reverse(ev *Event) {
	lp := pe.sim.lps[ev.dst]
	lp.mode = modeReverse
	lp.cur = ev
	lp.Handler.Reverse(lp, ev)
	lp.cur = nil
	lp.mode = modeIdle
	lp.rng.Reverse(uint64(ev.rngDraws))
	ev.rngDraws = 0
	lp.sendSeq = ev.prevSendSeq
	for i := len(ev.sent) - 1; i >= 0; i-- {
		pe.cancel(ev.sent[i])
	}
	ev.sent = ev.sent[:0]
}

// cancel routes a cancellation for a previously sent event to the PE that
// owns its destination.
func (pe *PE) cancel(ev *Event) {
	dstPE := pe.sim.lps[ev.dst].kp.pe
	if dstPE == pe {
		pe.cancelLocal(ev)
		return
	}
	pe.post(dstPE, mail{ev: ev, cancel: true})
}

// scheduleNew implements engine for the parallel kernel: a freshly sent
// event goes straight into the local queue when its destination is local,
// or into the outbox batch for its destination PE otherwise.
func (pe *PE) scheduleNew(ev *Event) {
	dstPE := pe.sim.lps[ev.dst].kp.pe
	if dstPE == pe {
		pe.insert(ev)
		return
	}
	pe.post(dstPE, mail{ev: ev})
}

// nextLive pops cancelled events off the top of the pending queue and
// returns the first live one without removing it. A cancelled event popped
// here is dead — it was either never executed or already rolled back, and
// the anti-message that killed it has been consumed — so it returns to
// this (its destination's) PE's pool.
func (pe *PE) nextLive() (*Event, bool) {
	for {
		ev, ok := pe.pending.Min()
		if !ok {
			return nil, false
		}
		if ev.state == stateCanceled {
			pe.pending.Pop()
			pe.free(ev)
			continue
		}
		return ev, true
	}
}

// execute runs one event forward.
func (pe *PE) execute(ev *Event) {
	if pe.sim.paranoid && ev.state == stateFree {
		panic("core: use after free: executing pooled event " + ev.String())
	}
	lp := pe.sim.lps[ev.dst]
	kp := lp.kp
	ev.state = stateProcessed
	ev.Bits = 0
	ev.prevSendSeq = lp.sendSeq
	lp.mode = modeForward
	lp.cur = ev
	lp.Handler.Forward(lp, ev)
	lp.cur = nil
	lp.mode = modeIdle
	kp.push(ev)
	pe.processed++
	pe.liveEvents++
	if pe.liveEvents > pe.livePeak {
		pe.livePeak = pe.liveEvents
	}
}

// run is the PE goroutine body.
func (pe *PE) run() (err error) {
	defer func() {
		if r := recover(); r != nil {
			buf := make([]byte, 16<<10)
			buf = buf[:runtime.Stack(buf, false)]
			err = fmt.Errorf("core: PE %d panicked: %v\n%s", pe.id, r, buf)
			pe.sim.fail(err)
		}
	}()
	s := pe.sim
	start := time.Now()
	defer func() { pe.busy = time.Since(start) }()
	for {
		// Drain before flushing: applying inbound mail can roll back and
		// generate anti-messages, and those are the latency-critical
		// sends — a destination that keeps executing a cancelled event's
		// descendants only digs a deeper rollback.
		pe.drainMailbox()
		pe.flushMail(false)

		// No rendezvous: notice termination, fossil-collect against any new
		// estimate, move the token if held.
		done, gerr := pe.asyncPass()
		if gerr != nil {
			return gerr
		}
		if done {
			return nil
		}

		n := 0
		batch := s.cfg.BatchSize
		if pe.faults != nil {
			batch = pe.faults.batchCap(pe.id, batch)
		}
		if pe.sinceGVT >= s.cfg.BatchSize*s.cfg.GVTInterval {
			// Speculation quota: the token round never stops the world, so
			// bound how far commits can lag execution by count instead. A PE
			// that has executed a full GVT interval's worth of events since
			// the last completed round idles (requesting rounds, below)
			// until one completes and resets the counter, no matter how
			// densely events are packed in virtual time. Time-based windows
			// cannot catch this — any fixed width is wrong for some event
			// density.
			batch = 0
		}
		// The optimism controller owns the whole horizon: the caller's cap,
		// the adaptive window and the pressure valve; see throttle.go.
		horizon, clamped, throttled := pe.opt.horizon(s.GVT(), pe.liveEvents)
		if clamped {
			pe.optClamps++
		}
		if throttled {
			pe.memThrottles++
		}
		for n < batch {
			ev, ok := pe.nextLive()
			if !ok || ev.recvTime >= horizon {
				break
			}
			pe.pending.Pop()
			pe.execute(ev)
			n++
			if s.token.holder.Load() == int64(pe.id) &&
				(pe.id != 0 || pe.tokenLaunched || s.gvtRequested.Load()) {
				// An actionable token visit is worth more than batch depth:
				// every event the holder executes first adds a full event to
				// the round's latency, and round latency is the bound on how
				// far commits lag execution (so it directly sets the live-
				// event population). The next pass flushes and visits.
				break
			}
		}

		if n == 0 {
			// Nothing executable below the horizon. Spin briefly (new mail
			// may be en route), then escalate. If the optimism throttle is
			// what blocks us (work exists below the end time), only a GVT
			// advance can unblock, so keep requesting rounds. An idle PE
			// needs one round whose token visit saw it idle to complete —
			// that round either discovers termination or proves someone
			// else still has the work, and only then is parking safe
			// (otherwise every PE could fall asleep on a stale estimate
			// with no round pending to notice the machine has drained).
			// The token holder never parks — and it must also keep
			// requesting rounds while idle: between rounds the token rests
			// at its holder, so if the holder merely yielded, the other PEs
			// could all park with the request flag clear and no round would
			// ever launch to discover termination.
			throttled := false
			if ev, ok := pe.nextLive(); ok && ev.recvTime < s.cfg.EndTime {
				throttled = true
			}
			pe.idleMarked = true
			pe.idleSpins++
			if pe.idleSpins < minIdleThreshold {
				runtime.Gosched()
				continue
			}
			pe.idleSpins = 0
			parkable := pe.visitIdle && s.roundsDone.Load() >= pe.visitDone
			holding := s.token.holder.Load() == int64(pe.id)
			if throttled || !parkable || holding {
				// Under the GVTDelay fault the request may be suppressed;
				// re-requesting every threshold is what keeps that safe.
				s.requestGVT()
				runtime.Gosched()
			} else if s.gvtRequested.Load() {
				runtime.Gosched()
			} else {
				pe.park()
			}
			continue
		}
		pe.idleSpins = 0
		pe.idleMarked = false
		pe.visitIdle = false
		pe.sinceGVT += n
		if sw := s.sweepEvery; sw > 0 {
			// In-run invariant sweep: validate this PE's own structures
			// every sw non-empty passes, without waiting for a GVT round.
			// Everything checkInvariants touches is PE-owned, so no
			// quiescence is required.
			pe.sweepSince++
			if pe.sweepSince >= sw {
				pe.sweepSince = 0
				pe.invariantSweeps++
				if err := pe.checkInvariants(s.GVT()); err != nil {
					s.fail(err)
					return err
				}
			}
		}
		if pe.faults != nil {
			pe.maybeForceRollback(n)
			if batch < s.cfg.BatchSize {
				// Throttled PE: hand the processor over so the gap to the
				// unthrottled PEs actually widens.
				runtime.Gosched()
			}
		}
		if pe.sinceGVT >= s.cfg.BatchSize*s.cfg.GVTInterval {
			// The counter is the speculation quota above; only a completed
			// round (asyncPass) may reset it.
			s.requestGVT()
		}
	}
}

// lookup implements the engine interface by delegating to the simulator.
func (pe *PE) lookup(id LPID) *LP { return pe.sim.lookup(id) }

// fossilCollect commits all events below gvt on this PE's KPs. Committing
// drains the pressure valve's gauge: every committed event leaves the
// live set (and, under copy state saving, drops its snapshot), which is
// what re-opens a memory-throttled PE's optimism window.
func (pe *PE) fossilCollect(gvt Time) {
	for _, kp := range pe.kps {
		before := kp.committed
		kp.fossilCollect(gvt, pe)
		delta := kp.committed - before
		pe.committed += delta
		pe.liveEvents -= delta
	}
	pe.reclaimCanceled(gvt)
}

// reclaimCanceled sweeps the pending queue's below-GVT prefix back to the
// pool. Only cancelled husks can live there: GVT is a lower bound on
// every unprocessed live event, so anything pending below it must be an
// event whose anti-message already struck. nextLive reclaims such husks
// lazily, but only when they surface at the queue top — a cancelled
// event buried behind the frontier would otherwise sit in the queue (and
// in the pressure valve's gauge) until the run ends. Piggybacking the
// sweep on fossil collection bounds that garbage by one GVT round, and
// on the ladder the sweep is the BulkDrain fast path over an
// already-sorted prefix. A live event below GVT is a kernel bug — a GVT
// estimate that overtook an unprocessed event — and is loud, not
// tolerated: the PE run loop's recover turns the panic into sim.fail.
// The sweep stops at EndTime even when GVT has passed it (the final
// collection reports TimeInfinity): beyond-horizon events are live,
// pending and simply never executed.
func (pe *PE) reclaimCanceled(gvt Time) {
	if gvt > pe.sim.cfg.EndTime {
		gvt = pe.sim.cfg.EndTime
	}
	pe.reclaimBound.recvTime = gvt
	pe.pending.BulkDrain(&pe.reclaimBound, pe.reclaim)
}

// bindReclaim builds the bound event and the callback reclaimCanceled
// drains with, once per PE rather than per sweep: the sweep runs every GVT
// round on every PE, and both would escape to the heap each time. The
// bound sorts before every real event at its time (real destinations are
// >= 0).
func (pe *PE) bindReclaim() {
	pe.reclaimBound.dst, pe.reclaimBound.src = -1<<31, -1<<31
	pe.reclaim = func(ev *Event) {
		if ev.state != stateCanceled {
			panic(fmt.Sprintf("core: GVT violation: live pending event %s below GVT %g",
				ev.String(), float64(pe.reclaimBound.recvTime)))
		}
		pe.free(ev)
	}
}
