// Package core implements gotw, an optimistic parallel discrete-event
// simulation kernel in the style of ROSS (Rensselaer's Optimistic
// Simulation System): Time Warp synchronisation with rollback by reverse
// computation, kernel processes (KPs) that bound rollback scope, an
// asynchronous token GVT whose senders cover their own in-flight mail,
// fossil collection with commit callbacks, and per-LP reversible random
// streams.
//
// A simulation is a set of logical processes (LPs) exchanging timestamped
// events. LPs are grouped into kernel processes, and kernel processes onto
// processing elements (PEs) — one goroutine each — which execute events
// optimistically and roll back when a straggler or cancellation arrives.
//
// The kernel guarantees a deterministic committed execution: events are
// totally ordered by (receive time, destination, source, sequence), and a
// parallel run commits exactly the order a sequential run produces, which
// is what lets the test suite compare the two bit-for-bit (the report's
// Attachment 3 experiment).
package core

import "fmt"

// Time is simulation virtual time. The hot-potato model uses one unit per
// synchronous network step with sub-unit offsets ordering intra-step
// decisions.
type Time float64

// TimeInfinity is later than every event; GVT reaches it when the
// simulation has drained.
const TimeInfinity = Time(1e308 * 1.5) // +Inf without importing math

// LPID identifies a logical process; IDs are dense in [0, NumLPs).
type LPID int32

// NoLP is the source of bootstrap events scheduled before the run starts.
const NoLP LPID = -1

// Bitfield is per-event scratch the model may use to remember which
// branches Forward took, so Reverse can undo exactly those effects — the
// analogue of ROSS's tw_bf. It is zeroed before every Forward call.
type Bitfield uint32

// Set sets bit i.
func (b *Bitfield) Set(i uint) { *b |= 1 << i }

// Clear clears bit i.
func (b *Bitfield) Clear(i uint) { *b &^= 1 << i }

// Test reports bit i.
func (b Bitfield) Test(i uint) bool { return b&(1<<i) != 0 }

type eventState uint8

const (
	stateInit eventState = iota
	statePending
	stateProcessed
	stateCanceled
	stateCommitted
	// stateFree marks an event sitting in (or just released to) an event
	// pool. A stateFree event reachable from any queue, KP history or
	// mailbox is a lifecycle bug; paranoid mode hunts for exactly that.
	stateFree
)

// Event is one timestamped message between LPs. The kernel owns the
// unexported bookkeeping; models interact with the exported Data payload
// and Bits scratch, plus the read-only accessors.
//
// Following ROSS's idiom, the Data payload doubles as the reverse-
// computation save area: Forward stores the few values it overwrites into
// its own message struct, and Reverse restores them.
//
// On 64-bit targets an Event is one 128-byte block, and pools carve it
// 128-aligned (pool.go), so the one miss that fetches an aligned pair of
// cache lines brings in the whole record. Everything the queue, execution,
// Send and fossil collection touch — recvTime through first — fills the
// first 64-byte line, and the rest of the sent list takes the second. The
// split matters more than the pairing: the ladder reads an event's key long
// before the event executes, and by then a second line is often gone from
// the cache again.
type Event struct {
	recvTime Time
	dst      LPID
	src      LPID
	seq      uint64 // per-source send sequence; (src, seq) unique per history

	// Data is the model-defined message payload.
	Data any
	// Bits is the reverse-computation branch scratch, zeroed before Forward.
	Bits Bitfield

	// Kernel bookkeeping, touched only by the owning (destination) PE
	// after the event has been handed off. While the event (or an
	// anti-message for it) rides a cross-PE lane, neither side may touch
	// any of it: the sender stopped owning it at post time, and the
	// destination does not own it until drain. The in-flight accounting
	// (mailbox.go) is what makes the gap safe — mail queued in an outbox
	// or lane keeps GVT from stabilising, so the event cannot be
	// committed, fossil-collected, or recycled while in transit. That is
	// also why Event carries no intrusive queue link: an event and its
	// anti-message can be in flight simultaneously, which no single
	// embedded next-pointer could represent.
	state    eventState
	hasMore  bool   // more is non-empty
	rngDraws uint32 // random draws Forward consumed
	gen      uint32 // incarnation counter, bumped on every pool free
	// first and more list the events produced while processing this event,
	// in send order, for cancellation on rollback. first sits on the hot
	// line, so an event that sends at most one (every PHOLD event, all but
	// INJECT in hot-potato) never touches its second. more starts on
	// moreBuf, so INJECT's second send does not allocate; a handler that
	// sends more grows onto the heap once (put keeps the grown array).
	// Because more points into the event itself, an Event is never copied
	// by value; pools hand out addresses of slab elements (pool.go).
	first   *Event
	more    []*Event
	moreBuf [1]*Event
	_       [32]byte // pads to 128 bytes on 64-bit targets
}

// addSent lists ev as sent while processing e.
func (e *Event) addSent(ev *Event) {
	if e.first == nil {
		e.first = ev
		return
	}
	e.more = append(e.more, ev)
	e.hasMore = true
}

// clearSent empties the sent list, keeping more's backing array. It reads
// the second cache line only when more was used.
func (e *Event) clearSent() {
	e.first = nil
	if e.hasMore {
		clear(e.more)
		e.more = e.more[:0]
		e.hasMore = false
	}
}

// RecvTime returns the virtual time at which the event executes.
func (e *Event) RecvTime() Time { return e.recvTime }

// Dst returns the destination LP.
func (e *Event) Dst() LPID { return e.dst }

// Src returns the sending LP, or NoLP for bootstrap events.
func (e *Event) Src() LPID { return e.src }

// String renders the event identity for diagnostics.
func (e *Event) String() string {
	return fmt.Sprintf("Event{t=%g dst=%d src=%d seq=%d}", float64(e.recvTime), e.dst, e.src, e.seq)
}

// before is the kernel's total order on events. Receive time dominates;
// destination, source and the per-source sequence break ties. Because
// (src, seq) is unique along any committed history, two distinct events
// never compare equal, so every queue pop, straggler check and rollback
// agrees on one global order — the root of the kernel's determinism.
func (e *Event) before(o *Event) bool {
	if e.recvTime != o.recvTime {
		return e.recvTime < o.recvTime
	}
	if e.dst != o.dst {
		return e.dst < o.dst
	}
	if e.src != o.src {
		return e.src < o.src
	}
	return e.seq < o.seq
}

// eventKey is a value copy of an event's ordering key; KPs keep one for
// their last processed event so the straggler test survives fossil
// collection of the event itself.
type eventKey struct {
	recvTime Time
	dst      LPID
	src      LPID
	seq      uint64
}

func (e *Event) key() eventKey {
	return eventKey{e.recvTime, e.dst, e.src, e.seq}
}

func (k eventKey) beforeEvent(e *Event) bool {
	if k.recvTime != e.recvTime {
		return k.recvTime < e.recvTime
	}
	if k.dst != e.dst {
		return k.dst < e.dst
	}
	if k.src != e.src {
		return k.src < e.src
	}
	return k.seq < e.seq
}

func (e *Event) beforeKey(k eventKey) bool {
	if e.recvTime != k.recvTime {
		return e.recvTime < k.recvTime
	}
	if e.dst != k.dst {
		return e.dst < k.dst
	}
	if e.src != k.src {
		return e.src < k.src
	}
	return e.seq < k.seq
}
