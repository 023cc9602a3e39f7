package core

import (
	"fmt"

	"repro/internal/rng"
)

// Handler is the model-side behaviour of a logical process. Forward
// executes an event, mutating the LP's State and sending new events;
// Reverse must exactly undo Forward's mutations of State, using values the
// model saved in the event's Data payload and Bits scratch. The kernel
// itself undoes everything else: events Forward sent are cancelled, random
// draws are rewound, and the send sequence is restored.
//
// Reverse is called with events in the exact reverse of processing order,
// so a handler may rely on LIFO undo semantics.
type Handler interface {
	Forward(lp *LP, ev *Event)
	Reverse(lp *LP, ev *Event)
}

// Committer is optionally implemented by handlers that want a callback
// once an event is irrevocably in the past (below GVT). Commit runs during
// fossil collection in per-LP event order and is the safe place for
// irreversible actions: I/O, appending to output logs, final tallies. The
// kernel looks for it once per LP when Run starts, so the Handler installed
// by then — wrappers included — is the one that decides.
type Committer interface {
	Commit(lp *LP, ev *Event)
}

// lpMode guards the operations legal in each handler phase: only Forward
// may send events or draw randomness.
type lpMode uint8

const (
	modeIdle lpMode = iota
	modeForward
	modeReverse
	modeCommit
)

// String names the handler phase.
func (m lpMode) String() string {
	switch m {
	case modeForward:
		return "Forward"
	case modeReverse:
		return "Reverse"
	case modeCommit:
		return "Commit"
	}
	return "idle"
}

// inHandler names the LP among lps that eng executes and that is inside a
// handler phase, with the phase and the event, for a panic report. It
// returns "" when no such LP is, i.e. when the kernel itself panicked.
// Every phase sets mode and cur on entry and a panic skips their reset, so
// reading them here adds nothing to the hot path.
func inHandler(lps []*LP, eng engine) string {
	for _, lp := range lps {
		if lp.eng == eng && lp.mode != modeIdle {
			return fmt.Sprintf(" in LP %d %s %s", lp.ID, lp.mode, lp.cur)
		}
	}
	return ""
}

// LP is one logical process. Handler and State are set by the model during
// setup (before Run); everything else is kernel-owned. An LP is only ever
// touched by the PE that owns its KP, so handlers need no locking.
//
// On 64-bit targets an LP is exactly 128 bytes, random stream included, so
// executing an event touches one aligned pair of cache lines of LP state.
// The small fields share the words after ID to keep it there. An LP holds no
// placement: the engine's placement table says where it runs, so a sender
// never reads this record, which the owner writes at every event.
type LP struct {
	// ID is the dense identifier of this LP.
	ID   LPID
	mode lpMode
	// cancels is set under the optimistic engine, the only one that rolls
	// back: Send then records each event on its cause's sent list. The
	// sequential and conservative engines never read that list.
	cancels bool
	// numLPs is the run's LP count, Send's range check. It is kept on the
	// sender's own record so the check reads nothing another PE writes.
	numLPs int32

	// Handler implements the model's event processing; required.
	Handler Handler
	// State is the model's mutable per-LP state.
	State any

	rng     rng.Stream // seeded in place by every engine (lpTable.build)
	sendSeq uint64
	cur     *Event
	eng     engine
	// pool is the event pool of the PE (or engine) that executes this LP:
	// Send draws events from it and Spare payloads.
	pool *eventPool
	// committer is Handler's Committer side, or nil; resolved by
	// bindHandlers when Run starts.
	committer Committer
}

// engine abstracts the three executors (parallel, sequential,
// conservative) behind LP.Send.
type engine interface {
	// scheduleNew routes a freshly created event to its destination. The
	// event carries its full identity (src, seq, recvTime), so the engine
	// needs no separate sender argument. Send has checked that the
	// destination is an LP of the run.
	scheduleNew(ev *Event)
}

// bindHandlers is every engine's last step before executing: each LP must
// have a handler, and what that handler can do beyond Forward/Reverse is
// resolved here, once, instead of by a type assertion per committed event.
func bindHandlers(lps []*LP) error {
	for _, lp := range lps {
		if lp.Handler == nil {
			return fmt.Errorf("core: LP %d has no handler", lp.ID)
		}
		lp.committer, _ = lp.Handler.(Committer)
	}
	return nil
}

// commit runs the handler's Commit callback for ev, if it has one.
func (lp *LP) commit(ev *Event) {
	if lp.committer == nil {
		return
	}
	lp.mode = modeCommit
	lp.cur = ev
	lp.committer.Commit(lp, ev)
	lp.cur = nil
	lp.mode = modeIdle
}

// executeFinal runs ev on an engine that never rolls back (sequential,
// conservative): the event is committed the moment Forward returns, so it
// is dead at once and goes back, payload and all, to the pool of the engine
// executing lp for the next Send.
func (lp *LP) executeFinal(ev *Event) {
	ev.state = stateProcessed
	ev.Bits = 0
	lp.mode = modeForward
	lp.cur = ev
	lp.Handler.Forward(lp, ev)
	lp.cur = nil
	lp.mode = modeIdle
	lp.commit(ev)
	ev.state = stateCommitted
	lp.pool.put(ev)
}

// Now returns the receive time of the event being handled. It is valid in
// Forward, Reverse and Commit.
func (lp *LP) Now() Time {
	if lp.cur == nil {
		panic("core: LP.Now called outside an event handler")
	}
	return lp.cur.recvTime
}

// Rand draws a uniform variate in (0,1) from the LP's reversible stream.
// Only legal during Forward; the kernel rewinds the draws automatically if
// the event is rolled back, so Reverse must not (and cannot) re-draw.
func (lp *LP) Rand() float64 {
	lp.checkDraw()
	return lp.rng.Uniform()
}

// RandInt draws a uniform integer in [lo, hi] inclusive (one draw).
func (lp *LP) RandInt(lo, hi int64) int64 {
	lp.checkDraw()
	return lp.rng.Integer(lo, hi)
}

// RandExp draws an exponential variate with the given mean (one draw).
func (lp *LP) RandExp(mean float64) float64 {
	lp.checkDraw()
	return lp.rng.Exponential(mean)
}

// RandBool is true with probability p (one draw).
func (lp *LP) RandBool(p float64) bool {
	lp.checkDraw()
	return lp.rng.Bool(p)
}

func (lp *LP) checkDraw() {
	if lp.mode != modeForward {
		panic("core: random draw outside Forward (randomness must be replayable)")
	}
	lp.cur.rngDraws++
}

// Send schedules a new event for LP dst at Now()+delay carrying data.
// delay must be strictly positive: zero-delay events would execute at the
// same virtual time as their cause, and Time Warp's correctness argument
// (and the report's synchronous network model) requires causes to strictly
// precede effects. Only legal during Forward.
//
// The returned event is kernel-owned and recycled through a free list once
// it is committed or cancelled; do not retain the pointer beyond the
// current handler call.
func (lp *LP) Send(dst LPID, delay Time, data any) *Event {
	if lp.mode != modeForward {
		panic("core: Send outside Forward")
	}
	if !(delay > 0) {
		panic("core: Send requires a strictly positive delay")
	}
	if uint32(dst) >= uint32(lp.numLPs) {
		panic("core: Send to unknown LP")
	}
	ev := lp.pool.get()
	ev.recvTime = lp.cur.recvTime + delay
	ev.dst = dst
	ev.src = lp.ID
	ev.seq = lp.sendSeq
	ev.Data = data
	lp.sendSeq++
	if lp.cancels {
		lp.cur.addSent(ev)
	}
	lp.eng.scheduleNew(ev)
	return ev
}

// Spare returns the payload of an event that died on this LP's PE, or nil
// when none is held, so a handler can reuse it for its next Send instead
// of allocating:
//
//	m, ok := lp.Spare().(*Msg)
//	if !ok {
//	    m = new(Msg)
//	}
//	*m = Msg{...}
//
// The spare may have been sent by any handler, so assert its type (one of
// a foreign type is simply dropped), and overwrite it wholly before
// sending: it still holds whatever its previous event carried. Only legal
// during Forward.
func (lp *LP) Spare() any {
	if lp.mode != modeForward {
		panic("core: Spare outside Forward")
	}
	return lp.pool.spare()
}

// SendSelf schedules an event for this LP itself.
func (lp *LP) SendSelf(delay Time, data any) *Event {
	return lp.Send(lp.ID, delay, data)
}
