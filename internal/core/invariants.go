package core

import "fmt"

// This file implements the kernel's paranoid mode: structural invariant
// checks each PE runs over its own structures whenever it fossil-collects
// against a new GVT estimate (and at the shutdown drain, when no message is
// in flight). The checks are aimed at model authors — a Reverse handler
// that fails to restore state, or a handler that mutates another LP's state
// directly, surfaces here as a precise error instead of a mysteriously
// wrong statistic at the end of the run.

// checkInvariants validates this PE's structures. Called on the owning PE
// after fossil collection, with the estimate it collected against; every
// structure it reads is PE-owned, so no quiescence is needed.
func (pe *PE) checkInvariants(gvt Time) error {
	// The pressure valve's gauge must agree with ground truth: liveEvents
	// is maintained incrementally (execute, rollback, fossil collection)
	// and a drift here would silently mis-throttle — or never throttle —
	// the memory bound.
	live := int64(0)
	for _, kp := range pe.kps {
		live += int64(kp.live())
	}
	if live != pe.liveEvents {
		return fmt.Errorf("core: invariant: PE %d live-event gauge %d != %d live across KPs",
			pe.id, pe.liveEvents, live)
	}
	for _, kp := range pe.kps {
		// Processed lists ascend strictly in the total event order and
		// hold only processed events at or above the commit horizon.
		var prev *Event
		for i := kp.head; i < len(kp.processed); i++ {
			ev := kp.processed[i]
			if ev == nil {
				return fmt.Errorf("core: invariant: KP %d has nil processed entry", kp.id)
			}
			if ev.state != stateProcessed {
				return fmt.Errorf("core: invariant: KP %d processed list holds event in state %d (%v)",
					kp.id, ev.state, ev)
			}
			if prev != nil && !prev.before(ev) {
				return fmt.Errorf("core: invariant: KP %d processed list out of order: %v then %v",
					kp.id, prev, ev)
			}
			prev = ev
		}
		// lastKey agrees with the tail.
		if tail := kp.tail(); tail != nil {
			if !kp.hasLast || kp.lastKey != tail.key() {
				return fmt.Errorf("core: invariant: KP %d lastKey stale", kp.id)
			}
		}
	}
	// Pending events belong to this PE, are pending or cancelled, and —
	// for live ones — sort after their KP's last processed event (the
	// straggler rule's postcondition).
	var err error
	pe.pending.Each(func(ev *Event) {
		if err != nil {
			return
		}
		switch ev.state {
		case statePending:
			p := pe.sim.place[ev.dst]
			if int(p.pe) != pe.id {
				err = fmt.Errorf("core: invariant: PE %d queue holds event for PE %d (%v)",
					pe.id, p.pe, ev)
				return
			}
			kp := pe.sim.kps[p.kp]
			if kp.hasLast && ev.beforeKey(kp.lastKey) {
				err = fmt.Errorf("core: invariant: pending event %v precedes KP %d's last processed",
					ev, kp.id)
				return
			}
		case stateCanceled:
			// Awaiting lazy removal; fine.
		case stateFree:
			err = fmt.Errorf("core: invariant: use after free: pooled event still queued (%v)", ev)
		default:
			err = fmt.Errorf("core: invariant: queued event in state %d (%v)", ev.state, ev)
		}
	})
	return err
}

// checkQuiescentComms validates that this PE's communication state is
// empty at the comms fixed point: every PE has force-flushed its outbox
// and drained its lanes, and sent == delivered, so anything left behind is
// mail the accounting failed to cover. It is only true between the two
// barriers of a stable commsFixedPoint iteration, while every PE stands
// still; commsFixedPoint calls it there and acts on the answer once
// stability is known. After the iteration's second barrier it is no longer
// an invariant: PEs resume, and the checkpoint rendezvous in particular
// goes straight on to roll every KP back to GVT and flush the
// anti-messages into lanes whose owners may not have got that far
// (TestCheckpointRendezvousQuiescenceCheck).
func (pe *PE) checkQuiescentComms() error {
	for i := range pe.lanes {
		if !pe.lanes[i].isEmpty() {
			return fmt.Errorf("core: invariant: PE %d lane from PE %d not empty at GVT quiescence", pe.id, i)
		}
	}
	for d, buf := range pe.outbox.bufs {
		if len(buf) > 0 {
			return fmt.Errorf("core: invariant: PE %d outbox for PE %d holds %d messages at GVT quiescence",
				pe.id, d, len(buf))
		}
	}
	return nil
}
