package core

import "sync/atomic"

// This file is the optimistic kernel's cross-PE communication layer:
// per-sender SPSC lanes (the lock-free mailbox), per-destination outboxes
// that coalesce sends into batches, and the park/wake protocol idle PEs use
// instead of spinning. DESIGN.md ("Communication architecture") carries the
// full correctness argument; the short form is that all ordering the
// cancellation protocol needs is per-sender FIFO, which the outbox and the
// lane both preserve by construction.

// mail is one message between PEs: a positive event or a cancellation
// (anti-message) for one.
type mail struct {
	ev     *Event
	cancel bool
}

// laneCap is the capacity of one SPSC lane; must be a power of two. A full
// lane is not an error: the sender keeps the overflow in its outbox and
// retries next pass (see flushMail), so laneCap only bounds how much mail
// rides in the lock-free buffer at once, never how much can be in flight.
const laneCap = 128

// lane is a bounded single-producer single-consumer ring carrying mail from
// one sender PE to one destination PE. head is written only by the consumer
// (the destination), tail only by the producer (the sender); both grow
// monotonically and are masked into the buffer. The producer publishes a
// whole batch of slot writes with one tail store, and the atomic store/load
// pair is the only synchronisation either side performs — no mutex, no CAS.
//
// Lifecycle tripwire encoded here by design rather than by check: a message
// sitting in a lane is still covered by its sender's GVT ledger (the epoch
// that holds it retires only once head passes its index; see gvt_async.go),
// so no estimate can overtake it and no event can be fossil-collected or
// recycled while its mail is still in flight. It is also counted as
// sent-but-not-delivered (the sender bumped MailSent at outbox-append time,
// the consumer bumps MailReceived only at drain), so the comms fixed point
// cannot be reached while the lane is non-empty. drainMailbox additionally
// asserts the lifecycle in paranoid mode (SetParanoid).
type lane struct {
	//simlint:spsc
	head atomic.Uint64
	_    [56]byte // keep the consumer-owned and producer-owned indices on separate cache lines
	//simlint:spsc
	//simlint:publishes buf
	tail atomic.Uint64
	_    [56]byte
	buf  [laneCap]mail
}

// push appends up to len(msgs) messages, preserving order, and returns how
// many fit. A single release store of tail publishes the whole batch.
func (l *lane) push(msgs []mail) int {
	head := l.head.Load()
	tail := l.tail.Load()
	n := laneCap - int(tail-head)
	if n > len(msgs) {
		n = len(msgs)
	}
	for i := 0; i < n; i++ {
		l.buf[(tail+uint64(i))&(laneCap-1)] = msgs[i]
	}
	if n > 0 {
		l.tail.Store(tail + uint64(n))
	}
	return n
}

// drain appends every queued message to into and empties the lane. Slots
// are scrubbed so the ring never pins a recycled event's payload, and the
// single head store republishes the freed capacity to the producer.
func (l *lane) drain(into []mail) []mail {
	head := l.head.Load()
	tail := l.tail.Load()
	if head == tail {
		return into
	}
	for i := head; i != tail; i++ {
		slot := &l.buf[i&(laneCap-1)]
		into = append(into, *slot)
		*slot = mail{}
	}
	l.head.Store(tail)
	return into
}

// isEmpty reports whether the lane holds no messages. Exact only when the
// producer is quiescent (GVT invariant checks) or as a conservative hint
// (park's recheck, where a concurrent push re-wakes the PE anyway).
func (l *lane) isEmpty() bool {
	return l.head.Load() == l.tail.Load()
}

// eagerFlushLen is the outbox batch size that triggers an immediate flush
// of that destination instead of waiting for the pass boundary. Coalescing
// amortises the handoff cost, but unbounded batching would let a consumer
// speculate on stale information for a whole pass — more stragglers,
// deeper rollbacks, more anti-messages. The threshold keeps the latency
// bounded while still collapsing a pass's worth of small sends into a few
// lane pushes.
const eagerFlushLen = 16

// outbox coalesces a PE's outgoing remote mail into per-destination batches
// that flush when they reach eagerFlushLen and at every scheduling-pass
// boundary. bufs is indexed by destination PE; dirty lists destinations
// with queued mail in first-touch order, so a flush visits only live
// batches.
type outbox struct {
	bufs  [][]mail
	dirty []int
}

// post queues one outgoing message for a remote destination PE. Both of
// the sender's in-flight records are updated here, at append time, so mail
// parked in the outbox (or a lane) is covered from the moment it exists:
// the open coverage epoch's minimum keeps GVT at or below its receive time,
// and the per-PE MailSent counter (this PE's shard of the global in-flight
// accounting) keeps the comms fixed point unstable.
func (pe *PE) post(dst *PE, msg mail) {
	ob := &pe.outbox
	d := dst.id
	if len(ob.bufs[d]) == 0 {
		ob.dirty = append(ob.dirty, d)
	}
	ob.bufs[d] = append(ob.bufs[d], msg)
	pe.stats.MailSent++
	// An anti-message carries its target's receive time, which bounds
	// everything the cancellation can cause.
	if t := msg.ev.recvTime; t < pe.outMin[d] {
		pe.outMin[d] = t
	}
	if len(ob.bufs[d]) >= eagerFlushLen &&
		(pe.faults == nil || pe.faults.plan.MailBurst == 0) {
		pe.flushDst(d)
	}
}

// flushDst pushes one destination's batch into its lane, keeping any
// overflow (full lane) in the outbox in order. The destination stays in
// the dirty list either way; flushMail compacts entries that emptied.
func (pe *PE) flushDst(d int) {
	buf := pe.outbox.bufs[d]
	if len(buf) == 0 {
		return
	}
	dst := pe.sim.pes[d]
	n := dst.lanes[pe.id].push(buf)
	if n == 0 {
		return
	}
	pe.stats.BatchesFlushed++
	pe.stats.BatchedMessages += int64(n)
	if n < len(buf) {
		rest := copy(buf, buf[n:])
		for i := rest; i < len(buf); i++ {
			buf[i] = mail{}
		}
		buf = buf[:rest]
	} else {
		buf = buf[:0]
	}
	pe.outbox.bufs[d] = buf
	dst.wake()
}

// flushMail pushes every dirty outbox batch into the destination's lane for
// this sender. When a lane is full, the unsent suffix stays in the outbox —
// in order — and is retried on the next pass or the next comms fixed-point
// iteration; the sender never spins on a full lane, which matters because
// the consumer may itself be blocked at a barrier waiting for this PE.
// force bypasses the MailBurst fault's hold (the comms fixed point must
// always flush, or it could never be reached).
func (pe *PE) flushMail(force bool) {
	ob := &pe.outbox
	if len(ob.dirty) == 0 {
		return
	}
	if !force && pe.faults != nil && pe.faults.holdMail() {
		return
	}
	keep := ob.dirty[:0]
	for _, d := range ob.dirty {
		pe.flushDst(d)
		if len(ob.bufs[d]) > 0 {
			keep = append(keep, d)
		}
	}
	ob.dirty = keep
}

// drainMailbox empties every inbound lane and applies the messages:
// positive events are inserted (possibly triggering a primary rollback),
// cancellations are resolved (possibly triggering a secondary rollback).
// Scanning lanes in sender order costs O(NumPEs) atomic loads; the payoff
// is that per-sender FIFO — the only order the cancellation protocol
// needs — holds structurally.
func (pe *PE) drainMailbox() {
	msgs := pe.batch[:0]
	rec := pe.sim.record
	for i := range pe.lanes {
		before := len(msgs)
		msgs = pe.lanes[i].drain(msgs)
		if rec != nil {
			if n := len(msgs) - before; n > 0 {
				rec.MailBatch(pe.id, i, n)
			}
		}
	}
	pe.batch = msgs
	if len(msgs) == 0 {
		return
	}
	pe.stats.MailReceived += int64(len(msgs))
	if n := int64(len(msgs)); n > pe.stats.MailboxPeak {
		pe.stats.MailboxPeak = n
	}
	if pe.faults != nil && pe.faults.plan.ShuffleMail && len(msgs) > 1 {
		pe.faults.perturbMail(msgs)
	}
	check := pe.sim.paranoid
	for _, m := range msgs {
		if check {
			// In-flight lifecycle tripwires: a positive event must still be
			// in its freshly-allocated state (no one may touch it before the
			// destination), and a cancellation's target must not have been
			// recycled while its anti-message rode a lane.
			if !m.cancel && m.ev.state != stateInit {
				panic("core: remote event drained in state " + m.ev.String())
			}
			if m.cancel && m.ev.state == stateFree {
				panic("core: use after free: anti-message drained for pooled event " + m.ev.String())
			}
		}
		if m.cancel {
			pe.cancelLocal(m.ev)
		} else {
			pe.insert(m.ev)
		}
	}
}

// hasInbound reports whether any inbound lane holds mail.
func (pe *PE) hasInbound() bool {
	for i := range pe.lanes {
		if !pe.lanes[i].isEmpty() {
			return true
		}
	}
	return false
}

// wake unparks the PE if it is parked. The CAS elects exactly one waker per
// park; the buffered channel makes the token-send non-blocking, and a stale
// token (left when the parking PE bailed out in its recheck) only causes a
// benign spurious wake. Callers: flushMail after landing mail in a lane,
// requestGVT (PE 0 must launch the token), forwardToken, completeRound,
// and fail.
func (pe *PE) wake() {
	if pe.parked.CompareAndSwap(true, false) {
		pe.wakes.Add(1)
		select {
		case pe.wakeCh <- struct{}{}:
		default:
		}
	}
}

// wakeAll unparks every PE; called when a global phase change (GVT request,
// failure) needs all PEs moving.
func (s *Simulator) wakeAll() {
	for _, pe := range s.pes {
		pe.wake()
	}
}

// park blocks until another PE wakes this one. The Dekker-style recheck
// after publishing parked=true closes the sleep/wake race: a sender either
// observes parked=true after its lane push and wakes us, or pushed before
// our store — in which case hasInbound sees its mail (the push's tail store
// and our parked store are both sequentially consistent). The same argument
// covers the GVT token: forwardToken stores the holder and then wakes the
// successor, so either the wake finds us parked or our recheck sees the
// holder store and bails — a PE can never sleep while holding the token.
func (pe *PE) park() {
	s := pe.sim
	pe.parked.Store(true)
	if pe.hasInbound() || len(pe.outbox.dirty) > 0 ||
		s.gvtRequested.Load() || s.finished.Load() || s.ckptPending.Load() ||
		s.token.holder.Load() == int64(pe.id) {
		pe.parked.Store(false)
		return
	}
	pe.stats.Parks++
	<-pe.wakeCh
	pe.parked.Store(false)
}
