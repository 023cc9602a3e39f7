package core

// KP is a kernel process: a group of LPs that shares one processed-event
// list and therefore one rollback scope. When a straggler or cancellation
// arrives for any LP in the KP, every later event processed in the KP is
// rolled back — including events of sibling LPs that were not causally
// affected ("false rollbacks", report §4.2.3). More KPs mean finer rollback
// scope but more fossil-collection bookkeeping; the report's Figures 7 and
// 8 chart exactly this trade-off, and the experiment harness reproduces
// them by sweeping Config.NumKPs.
type KP struct {
	id int

	// processed holds this KP's executed-but-uncommitted events in
	// processing order (ascending by the kernel's total event order).
	// head indexes the first live entry; fossil collection advances it and
	// compacts lazily.
	processed []*Event
	head      int

	// lastKey is the ordering key of the most recently processed event,
	// valid when hasLast is true. Kept as a value copy so the straggler
	// test works even after the event is fossil-collected.
	lastKey eventKey
	hasLast bool

	// peakLive is the high-water mark of live(), the KP's share of
	// Stats.PeakLiveEvents.
	peakLive int
}

// ID returns the KP's index.
func (kp *KP) ID() int { return kp.id }

func (kp *KP) live() int { return len(kp.processed) - kp.head }

func (kp *KP) push(ev *Event) {
	kp.processed = append(kp.processed, ev)
	kp.lastKey = ev.key()
	kp.hasLast = true
	if live := kp.live(); live > kp.peakLive {
		kp.peakLive = live
	}
}

// popTail removes and returns the most recently processed live event, or
// nil when none remain.
func (kp *KP) popTail() *Event {
	if kp.live() == 0 {
		return nil
	}
	last := len(kp.processed) - 1
	ev := kp.processed[last]
	kp.processed[last] = nil
	kp.processed = kp.processed[:last]
	kp.refreshLast()
	return ev
}

func (kp *KP) refreshLast() {
	if kp.live() == 0 {
		kp.hasLast = false
		return
	}
	kp.lastKey = kp.processed[len(kp.processed)-1].key()
	kp.hasLast = true
}

// tail returns the most recently processed live event without removing it.
func (kp *KP) tail() *Event {
	if kp.live() == 0 {
		return nil
	}
	return kp.processed[len(kp.processed)-1]
}

// fossilCollect commits and releases every processed event strictly below
// gvt, calling Commit handlers in processing order. A committed event can
// never be referenced again — its KP keeps only the value-copied lastKey,
// and a cancellation for it would be a GVT violation — so it returns to
// the owning PE's pool the moment its Commit handler finishes. It returns
// the number of events committed.
func (kp *KP) fossilCollect(gvt Time, pe *PE) int64 {
	var committed int64
	for kp.head < len(kp.processed) {
		ev := kp.processed[kp.head]
		if ev.recvTime >= gvt {
			break
		}
		pe.sim.lps[ev.dst].commit(ev)
		ev.state = stateCommitted
		kp.processed[kp.head] = nil
		kp.head++
		committed++
		pe.free(ev)
	}
	// Compact once the dead prefix dominates, to keep memory bounded.
	if kp.head > 64 && kp.head > len(kp.processed)/2 {
		n := copy(kp.processed, kp.processed[kp.head:])
		for i := n; i < len(kp.processed); i++ {
			kp.processed[i] = nil
		}
		kp.processed = kp.processed[:n]
		kp.head = 0
	}
	return committed
}
