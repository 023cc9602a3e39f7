package core

// This file implements the one lifecycle every event and its payload go
// through — the analogue of ROSS's preallocated tw_event free lists,
// which are the reason its steady-state event loop never touches the
// allocator:
//
//	slab ─carve→ Send/Schedule ─→ pending ─→ processed ─→ fossil ─┐
//	  ▲                              │ anti-message               │
//	  │ miss                         └────────→ cancelled husk ───┤
//	free list ◀───────────────── put (Data → spares) ◀────────────┘
//
// Every engine owns one or more eventPools: LP.Send draws events from the
// pool of the engine executing the sender, and dead events are returned
// at the two points the kernel proves they can never be referenced again:
//
//   - fossil collection: a committed event is irrevocably in the past;
//   - cancelled-event discard: an anti-messaged event popped off the
//     pending queue was either never executed or already rolled back.
//
// The payload rides along: a dead event's non-nil Data moves to the
// freeing pool's spare stack, and the next handler running on that PE may
// take it with LP.Spare instead of allocating a new one.
//
// Ownership rule: an event is freed only by the goroutine that owns it at
// death, which is always the PE of the event's *destination* LP (events
// and payloads migrate between pools — allocated from the sender's pool,
// freed into the receiver's — so no lock is ever needed). See DESIGN.md
// "Memory management" for the full argument.
//
// Every free stamps the event with a new generation and the stateFree
// marker, so a use-after-free — the classic free-list corruption — is
// detectable: paranoid mode (Simulator.SetParanoid) panics the moment a
// freed event is inserted, executed or found in any queue.

// Recycler is a vestige: the kernel no longer consults it. Payloads used
// to be handed back through this interface to a model-side sync.Pool; now
// every dead event's payload becomes a spare of the PE that freed it and
// models take one with LP.Spare. The type stays exported only because
// handler wrappers outside this module still name it.
type Recycler interface {
	Recycle(data any)
}

// slabEvents is the number of events one pool miss allocates. One slab is
// one 32 KB heap object (on 64-bit targets): large enough that warm-up
// costs a handful of allocations, small enough that a pool never
// over-commits by much. The size is also what aligns the events. Go puts
// an 8-byte type header in front of every smaller object that holds
// pointers, which would start each 128-byte Event 8 bytes past a 128-byte
// boundary. A 32 KB slab is allocated as a page-aligned span of its own,
// with no header, so every event carved from it is 128-aligned
// (TestRecordLayout).
const slabEvents = 256

// eventPool is a LIFO free list of dead events and a stack of their
// payloads, owned by exactly one goroutine (its PE's, or the engine's for
// the sequential executor), so no operation needs synchronisation. LIFO
// maximises cache warmth: the most recently dead event is the next one
// reissued.
type eventPool struct {
	free []*Event //simlint:owned
	// slab is the unissued remainder of the most recent allocation. Events
	// are handed out by address and never copied by value: Event.more
	// starts on the event's own moreBuf.
	slab []Event //simlint:owned
	// spares are the payloads of dead events, typed by whichever model
	// sent them. Retention is bounded by the free list's own length, so a
	// model that never calls LP.Spare pins no more payloads than events.
	spares []any //simlint:owned

	// stats is the owning worker's counter record, set once at
	// construction; the pool keeps its Pool* counts and
	// EventsRecycled/PayloadsRecycled there.
	stats *Counters //simlint:owned
}

// get returns a ready-to-initialise event: recycled when possible, carved
// from the slab otherwise. All kernel bookkeeping fields are clean (put
// scrubbed them); the caller sets identity, payload and time.
func (p *eventPool) get() *Event {
	c := p.stats
	c.PoolLive++
	if c.PoolLive > c.PoolLivePeak {
		c.PoolLivePeak = c.PoolLive
	}
	if n := len(p.free); n > 0 {
		ev := p.free[n-1]
		p.free[n-1] = nil
		p.free = p.free[:n-1]
		c.PoolHits++
		ev.state = stateInit
		return ev
	}
	if len(p.slab) == 0 {
		c.PoolMisses++
	} else {
		c.PoolHits++
	}
	return p.carve()
}

// carve issues a never-used event from the slab, allocating the next slab
// when this one is spent.
func (p *eventPool) carve() *Event {
	if len(p.slab) == 0 {
		p.slab = make([]Event, slabEvents)
	}
	ev := &p.slab[0]
	p.slab = p.slab[1:]
	ev.more = ev.moreBuf[:0]
	return ev
}

// boot builds a pre-run event — bootstrap, or restored from a checkpoint
// with its original identity — in the pool it will be freed into, so it is
// slab-resident like every other. These are not Sends and stay out of the
// hit/miss/live counters. Only called before Run, when the goroutine that
// owns the pool has not started.
func (p *eventPool) boot(dst LPID, t Time, src LPID, seq uint64, data any) *Event {
	ev := p.carve()
	ev.recvTime, ev.dst, ev.src, ev.seq, ev.Data = t, dst, src, seq, data
	return ev
}

// put returns a dead event to the free list and its payload to the spare
// stack. The event's generation is bumped so stale references are
// distinguishable from the recycled incarnation, and its bookkeeping is
// scrubbed — except the more slice's backing array, which is kept
// (cleared) so an event that once outgrew moreBuf does not re-grow. An
// event that sent at most one has nothing in more, and put leaves its
// second cache line untouched.
func (p *eventPool) put(ev *Event) {
	if ev.state == stateFree {
		panic("core: event freed twice: " + ev.String())
	}
	c := p.stats
	c.PoolLive--
	c.EventsRecycled++
	ev.gen++
	ev.state = stateFree
	ev.clearSent()
	ev.Bits = 0
	ev.rngDraws = 0
	p.free = append(p.free, ev)
	if ev.Data != nil {
		if len(p.spares) < len(p.free) {
			p.spares = append(p.spares, ev.Data)
		}
		ev.Data = nil
	}
}

// spare pops the most recently freed payload, or nil when none is held.
func (p *eventPool) spare() any {
	n := len(p.spares)
	if n == 0 {
		return nil
	}
	data := p.spares[n-1]
	p.spares[n-1] = nil
	p.spares = p.spares[:n-1]
	p.stats.PayloadsRecycled++
	return data
}
