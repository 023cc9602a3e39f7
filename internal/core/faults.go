package core

import (
	"errors"

	"repro/internal/rng"
)

// Faults is the kernel's fault-injection plan, consumed by the simcheck
// differential harness. Every injector is adversarial but correctness-
// preserving: it exercises rollback, cancellation, GVT and scheduling paths
// far harder than natural execution does, while the committed trajectory
// must remain bit-identical to a fault-free (and sequential) run. A nil
// plan — the production configuration — compiles to zero overhead on the
// hot paths beyond a pointer test.
//
// Arm a plan with Simulator.SetFaults. The Sequential and Conservative
// engines have no speculative machinery to stress, so they offer no way to
// hand them one.
type Faults struct {
	// Seed drives the injectors' private random stream. The stream only
	// chooses *where* to inject (which KP, what depth, what permutation);
	// committed results must not depend on it.
	Seed uint64

	// RollbackEvery, when positive, forces an artificial rollback on each
	// PE after every n-th non-empty scheduler pass: a random live suffix of
	// a random local KP is unwound through the full reverse-computation
	// path and re-executed. This manufactures rollback volume even in
	// configurations (one PE, generous batches) that would never roll back
	// naturally. The suffix is clamped to events at or above the PE's last
	// token contribution — unwinding below it would violate the promise the
	// circulating round was built on.
	RollbackEvery int
	// RollbackDepth bounds how many events one forced rollback unwinds
	// (uniform in [1, RollbackDepth]; 0 or 1 means exactly one event). The
	// depth is additionally capped at one less than the number of events
	// the pass just executed, so an injecting pass always nets at least one
	// new event and the run cannot stall in an execute/unwind cycle.
	RollbackDepth int

	// GVTDelay, when positive, suppresses all but every (n+1)-th GVT
	// request. GVT rounds are retried by the requesting PEs, so progress is
	// delayed, never lost; the effect is longer speculation horizons, more
	// live events, and later fossil collection.
	GVTDelay int

	// ShuffleMail randomly permutes every drained mailbox batch before it
	// is applied, preserving only the one ordering the kernel relies on: a
	// cancellation is applied after the positive copy of the same event
	// (all positive events first, in random order, then all cancellations,
	// in random order). This simulates adversarial message-delivery
	// interleavings between PEs.
	ShuffleMail bool

	// MailBurst, when positive, holds each PE's outgoing mail batches in
	// the outbox for n scheduler passes, then releases everything at once.
	// This stresses the delayed-flush coalescing path: bursts arrive as
	// one oversized batch (often overflowing a lane into the partial-push
	// retry path), stragglers get older, and the sender's GVT coverage
	// ledger must keep counting held mail as in flight (an epoch cannot
	// close while its outbox holds mail). The comms fixed point force-
	// flushes, so held mail never stalls a checkpoint or the shutdown.
	MailBurst int

	// ThrottlePEs, when positive, slows PEs with id < ThrottlePEs: their
	// batch size is capped at ThrottleBatch (default 1) and they yield the
	// processor every pass. Uneven PE progress widens the spread between
	// the fastest and slowest PE, which is what makes stragglers frequent.
	ThrottlePEs int
	// ThrottleBatch is the throttled PEs' batch cap; 0 means 1.
	ThrottleBatch int
}

func (f *Faults) validate() error {
	if f.RollbackEvery < 0 || f.RollbackDepth < 0 || f.GVTDelay < 0 ||
		f.ThrottlePEs < 0 || f.ThrottleBatch < 0 || f.MailBurst < 0 {
		return errors.New("core: Faults fields must be non-negative")
	}
	return nil
}

// peFaults is the per-PE fault-injection state: a private random stream
// (never the model's — injector randomness must not perturb model
// randomness) and the pass counter for forced rollbacks.
type peFaults struct {
	plan   *Faults
	rng    *rng.Stream
	passes int
	burst  int
}

// holdMail implements the MailBurst fault: report true (hold the outbox)
// for MailBurst consecutive flush attempts, then false (release) once.
// Only unforced flushes consult it — the comms fixed point always flushes.
func (f *peFaults) holdMail() bool {
	if f.plan.MailBurst <= 0 {
		return false
	}
	f.burst++
	if f.burst <= f.plan.MailBurst {
		return true
	}
	f.burst = 0
	return false
}

func newPEFaults(plan *Faults, peID int) *peFaults {
	return &peFaults{
		plan: plan,
		// Spread PE streams far apart from each other and from model
		// streams (which use small sequential ids).
		rng: rng.NewStream(plan.Seed*0x9E3779B1 + uint64(peID)<<32 + 0xFA07),
	}
}

// batchCap returns the PE's effective batch size under throttling.
func (f *peFaults) batchCap(peID, batch int) int {
	if f.plan.ThrottlePEs == 0 || peID >= f.plan.ThrottlePEs {
		return batch
	}
	cap := f.plan.ThrottleBatch
	if cap <= 0 {
		cap = 1
	}
	if cap < batch {
		return cap
	}
	return batch
}

// shuffle applies an in-place Fisher–Yates permutation driven by the fault
// stream.
func (f *peFaults) shuffle(msgs []mail) {
	for i := len(msgs) - 1; i > 0; i-- {
		j := int(f.rng.Integer(0, int64(i)))
		msgs[i], msgs[j] = msgs[j], msgs[i]
	}
}

// perturbMail adversarially reorders a drained mailbox batch. The only
// ordering the kernel's cancellation protocol needs is that an event's
// positive copy is applied before its anti-message; partitioning positives
// before cancellations preserves it (per-sender FIFO through the outbox
// and lane already guarantees the pair arrives in order, hence in the same
// or an earlier drain), while the shuffles within each half explore
// arbitrary arrival interleavings.
func (f *peFaults) perturbMail(msgs []mail) {
	p := 0
	for i := range msgs {
		if !msgs[i].cancel {
			msgs[p], msgs[i] = msgs[i], msgs[p]
			p++
		}
	}
	f.shuffle(msgs[:p])
	f.shuffle(msgs[p:])
}

// maybeForceRollback runs after each non-empty scheduler pass and, every
// RollbackEvery-th pass, unwinds a random live suffix of a random local KP.
// The events re-enter the pending queue and re-execute, so the committed
// trajectory is unchanged — only the rollback machinery gets exercised.
// executed is the number of events the pass just ran; the unwind depth
// stays below it so injection never cancels a whole pass's progress (which
// would turn the run into a non-terminating random walk).
func (pe *PE) maybeForceRollback(executed int) {
	f := pe.faults
	if f.plan.RollbackEvery <= 0 || executed < 2 {
		return
	}
	f.passes++
	if f.passes < f.plan.RollbackEvery {
		return
	}
	f.passes = 0

	start := 0
	if len(pe.kps) > 1 {
		start = int(f.rng.Integer(0, int64(len(pe.kps))-1))
	}
	var kp *KP
	for i := 0; i < len(pe.kps); i++ {
		if cand := pe.kps[(start+i)%len(pe.kps)]; cand.live() > 0 {
			kp = cand
			break
		}
	}
	if kp == nil {
		return
	}
	depth := 1
	if f.plan.RollbackDepth > 1 {
		depth = int(f.rng.Integer(1, int64(f.plan.RollbackDepth)))
	}
	if max := executed - 1; depth > max {
		depth = max
	}
	if live := kp.live(); depth > live {
		depth = live
	}
	// A token visit promised that nothing this PE can still affect lies
	// below its folded contribution, and the round publishes an estimate
	// other PEs fossil-collect against. Natural rollbacks keep the promise
	// by causality — they are triggered by mail the sender's coverage
	// ledger already folded in — but a spontaneous unwind of processed
	// events below the promise would emit anti-messages under the published
	// floor, cancelling events already committed and recycled. Clamp the
	// suffix to events at or above the last contribution.
	for depth > 0 && kp.processed[len(kp.processed)-depth].recvTime < pe.lastContrib {
		depth--
	}
	if depth == 0 {
		return
	}
	key := kp.processed[len(kp.processed)-depth].key()
	n := pe.rollback(kp, key)
	pe.stats.ForcedRollbacks++
	if rec := pe.sim.record; rec != nil {
		rec.Rollback(pe.id, kp.id, n, false, true)
	}
}
