package simcheck

import (
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/phold"
	"repro/internal/routing"
)

// Mutation names a deliberately seeded bug. Mutations exist to validate the
// harness itself: a differential oracle that never fires is
// indistinguishable from one that cannot fire, so the self-test arms each
// mutation in the non-reference cells and asserts a divergence IS reported.
type Mutation string

// The seeded bugs.
const (
	MutNone Mutation = ""
	// MutBrokenReverse makes every odd LP's Reverse handler forget to undo
	// the model state — the classic hand-written reverse-computation bug.
	// It only bites when rollbacks occur, so pair it with a fault plan that
	// forces them.
	MutBrokenReverse Mutation = "broken-reverse"
	// MutBrokenPriority inverts the outcome of the hot-potato policy's
	// Sleeping→Active upgrade comparison (Rand() < 1/24n becomes its
	// complement), the kind of flipped-comparison bug a priority scheme
	// makes easy to write. Hot-potato only.
	MutBrokenPriority Mutation = "broken-priority"
	// MutMapOrder folds Go's randomised map iteration order into PHOLD
	// state on every event — the nondeterminism bug class simlint's
	// determcheck rejects statically (handlers must be pure functions of
	// state, event and the LP's reversible stream). Seeding it here keeps
	// the differential oracle honest about the same contract: two runs of
	// the same cell commit different histories, so the matrix must report
	// a divergence. PHOLD only.
	MutMapOrder Mutation = "map-order"
	// MutOwnership writes to another slot's goroutine-owned counter from
	// outside its owner's methods — the cross-PE sharing bug class
	// simlint's ownercheck rejects statically. Unlike the mutations above
	// it is detected at lint time, not by the differential oracle: the
	// seeded write lives permanently in ownershipNoise below, where
	// TestMutationOwnershipDetected asserts ownercheck flags it.
	MutOwnership Mutation = "ownership"
)

// Mutations lists the seeded bugs available to -mutation.
func Mutations() []Mutation {
	return []Mutation{MutBrokenReverse, MutBrokenPriority, MutMapOrder, MutOwnership}
}

// brokenReverse skips the inner Reverse on odd LPs. Commit must still chain
// so trace recording (and model commit pruning) keep working.
type brokenReverse struct{ inner core.Handler }

func (b brokenReverse) Forward(lp *core.LP, ev *core.Event) { b.inner.Forward(lp, ev) }

func (b brokenReverse) Reverse(lp *core.LP, ev *core.Event) {
	if lp.ID%2 == 1 {
		return // seeded bug: forgets to restore state
	}
	b.inner.Reverse(lp, ev)
}

func (b brokenReverse) Commit(lp *core.LP, ev *core.Event) {
	if committer, ok := b.inner.(core.Committer); ok {
		committer.Commit(lp, ev)
	}
}

// brokenPriority flips the Sleeping-state upgrade decision after the fact:
// the inner policy consumes exactly the same random draws (so kernel
// reversal accounting is untouched), but a packet that would have stayed
// Sleeping upgrades and vice versa.
type brokenPriority struct{ inner routing.Policy }

func (b brokenPriority) Name() string { return b.inner.Name() + "+broken-priority" }

func (b brokenPriority) Route(ctx *routing.Ctx) routing.Decision {
	d := b.inner.Route(ctx)
	if ctx.Prio == routing.Sleeping {
		switch d.NewPrio {
		case routing.Sleeping:
			d.NewPrio = routing.Active
		case routing.Active:
			d.NewPrio = routing.Sleeping
		}
	}
	return d
}

// mapOrderNoise perturbs PHOLD state by the first key a map range
// happens to yield. The map is rebuilt per event so every execution —
// including re-execution after a rollback — draws a fresh iteration
// order; committed state becomes run-dependent, which is exactly the
// contract violation determcheck flags at compile time.
type mapOrderNoise struct{ inner core.Handler }

func (m mapOrderNoise) Forward(lp *core.LP, ev *core.Event) {
	m.inner.Forward(lp, ev)
	if st, ok := lp.State.(*phold.State); ok {
		noise := map[int64]int64{1: 1, 2: 2, 3: 3, 5: 5, 8: 8, 13: 13, 21: 21, 34: 34}
		for k := range noise { //simlint:deterministic seeded map-order bug: the simcheck self-test asserts the oracle catches this
			st.Processed += k //simlint:irreversible seeded bug: the noise is unreversible by construction (not a function of state/event)
			break
		}
	}
}

func (m mapOrderNoise) Reverse(lp *core.LP, ev *core.Event) {
	// Deliberately does not undo the noise: the perturbation is not a
	// function of (state, event), so no reverse computation could.
	m.inner.Reverse(lp, ev)
}

func (m mapOrderNoise) Commit(lp *core.LP, ev *core.Event) {
	if committer, ok := m.inner.(core.Committer); ok {
		committer.Commit(lp, ev)
	}
}

// peCounter is one slot of the ownership-mutation ledger. Its events
// field is goroutine-owned: only the slot's owner — via bump, on the PE
// executing that slot's LP — may touch it.
type peCounter struct {
	events int64 //simlint:owned
}

// bump is the owner-side increment; it exists so the seeded bug below has
// a correct counterpart to contrast with.
func (c *peCounter) bump() { c.events++ }

// publishCell is the seeded publish-order bug: ready is tagged as the
// atomic guard publishing total, but leak stores total *after* ready —
// so a consumer that trusted the guard could read total mid-write. The
// cell is only ever touched from LP 0's goroutine (no consumer exists),
// so arming it races nothing; the bug is caught statically by
// ownercheck, not by the oracle.
type publishCell struct {
	//simlint:publishes total
	ready atomic.Int64
	total int64
}

func (p *publishCell) leak(v int64) {
	p.ready.Store(1)
	p.total = v //simlint:crosspe seeded publish-order bug: stores the payload after the guard that publishes it; TestMutationPublishOrderDetected asserts ownercheck flags this line
}

// ownershipNoise is the MutOwnership wrapper: each event first bumps the
// executing LP's own ledger slot (legal — the ledger carries one slot per
// LP), then LP 0's handler also pokes the trailing sentinel slot by
// direct field access — a write to a goroutine-owned field from outside
// its owner's methods, the exact shape ownercheck exists to reject — and
// leaks a running total through the mis-ordered publishCell. The sentinel
// slot belongs to no LP, so the seeded write is confined to LP 0's
// goroutine: arming the mutation races nothing and perturbs no model
// state; the bugs are caught statically, not by the oracle.
type ownershipNoise struct {
	inner  core.Handler
	ledger []peCounter
	cell   *publishCell
}

func (o ownershipNoise) Forward(lp *core.LP, ev *core.Event) {
	o.inner.Forward(lp, ev)
	if n := len(o.ledger); n > 1 {
		if i := int(lp.ID); i < n-1 {
			o.ledger[i].bump()
		}
		if lp.ID == 0 {
			o.ledger[n-1].events++ //simlint:crosspe seeded ownership bug: bypasses the owning slot's bump method; TestMutationOwnershipDetected asserts ownercheck flags this line
			o.cell.leak(o.ledger[n-1].events)
		}
	}
}

func (o ownershipNoise) Reverse(lp *core.LP, ev *core.Event) {
	// The ledger is diagnostic-only (never folded into model state), so
	// leaving the counts un-reversed cannot diverge committed histories.
	o.inner.Reverse(lp, ev)
}

func (o ownershipNoise) Commit(lp *core.LP, ev *core.Event) {
	if committer, ok := o.inner.(core.Committer); ok {
		committer.Commit(lp, ev)
	}
}

// hotpotatoPolicy returns the routing policy for a hot-potato cell,
// mutated when the cell asks for it.
func hotpotatoPolicy(m Mutation) routing.Policy {
	base := routing.NewBusch()
	if m == MutBrokenPriority {
		return brokenPriority{inner: base}
	}
	return base
}
