package core

import (
	"errors"
	"sync"
	"time"
)

// errBarrierBroken is returned from barrier waits after a PE has failed;
// it unblocks every other PE so Run can surface the original error.
var errBarrierBroken = errors.New("core: barrier broken by failed PE")

// barrier is a reusable N-party barrier. poison wakes all waiters and makes
// every subsequent await fail, which is how a panicking PE releases its
// peers.
type barrier struct {
	mu      sync.Mutex
	cond    *sync.Cond
	parties int
	arrived int
	gen     uint64
	broken  bool
}

func newBarrier(parties int) *barrier {
	b := &barrier{parties: parties}
	b.cond = sync.NewCond(&b.mu)
	return b
}

func (b *barrier) await() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.broken {
		return errBarrierBroken
	}
	gen := b.gen
	b.arrived++
	if b.arrived == b.parties {
		b.arrived = 0
		b.gen++
		b.cond.Broadcast()
		return nil
	}
	for gen == b.gen && !b.broken {
		b.cond.Wait()
	}
	if b.broken {
		return errBarrierBroken
	}
	return nil
}

func (b *barrier) poison() {
	b.mu.Lock()
	b.broken = true
	b.cond.Broadcast()
	b.mu.Unlock()
}

// await is the PE-side barrier wait: it charges the blocked time to this
// PE's gvtWait shard, which is the barrier-mode half of the GVT wait-time
// statistic (the async mode charges time the token spends blocked on
// transient messages instead).
func (pe *PE) await() error {
	t0 := time.Now()
	err := pe.sim.bar.await()
	pe.gvtWait += time.Since(t0)
	return err
}

// requestGVT asks for a GVT computation at the next opportunity: in barrier
// mode every PE rendezvouses for a round at its next scheduling boundary;
// in async mode PE 0 launches the token's next circulation. Under the
// GVTDelay fault only every (n+1)-th request goes through; a suppressed
// request is safe because every path that needs GVT to advance (idle spin,
// optimism throttle, batch quota) re-requests until the round actually
// happens.
func (s *Simulator) requestGVT() {
	if f := s.cfg.Faults; f != nil && f.GVTDelay > 0 {
		if s.gvtDelayed.Add(1)%int64(f.GVTDelay+1) != 0 {
			return
		}
	}
	// Parked PEs must notice the request — in barrier mode to join the
	// round, in async mode so PE 0 launches the token; wake them. (A PE
	// that checks gvtRequested after this store never parks, so no sleeper
	// is missed; the Swap makes an already-pending request free.)
	if !s.gvtRequested.Swap(true) {
		s.wakeAll()
	}
}

// commsFixedPoint drives every PE to the point where no message is in
// flight: each repeatedly force-flushes its outbox and drains its lanes
// (which may trigger rollbacks that send further anti-messages) until the
// sent and delivered counts agree. Fujimoto's algorithm only needs the
// in-flight count to agree at the fixed point, not a live global count, so
// the counters are sharded: each PE owns plain mailSent/mailReceived fields
// and PE 0 sums them between barriers. The barrier's mutex orders every
// PE's writes before PE 0's reads (and PE 0's reads before anyone's next
// write), so no atomics are needed. mailSent is bumped at outbox-append
// time, which makes the fixed point cover outboxes and lanes alike: mail
// held anywhere keeps the loop unstable, and its event cannot be
// fossil-collected out from under it.
//
// Callers: every barrier-mode GVT round, and the async mode's one-time
// shutdown drain.
func (pe *PE) commsFixedPoint() error {
	s := pe.sim
	if err := pe.await(); err != nil {
		return err
	}
	for {
		pe.drainMailbox()
		pe.flushMail(true)
		if err := pe.await(); err != nil {
			return err
		}
		// Paranoid mode looks at the lanes here, between the iteration's two
		// barriers, the one window in which no PE moves; whether the look
		// counts is known only once PE 0 has declared the round stable.
		var quiet error
		if s.cfg.CheckInvariants {
			quiet = pe.checkQuiescentComms()
		}
		if pe.id == 0 {
			var sent, delivered int64
			for _, p := range s.pes {
				// The barrier just crossed orders every PE's counter writes
				// before these reads, and the next barrier holds the PEs
				// until PE0 is done reading.
				sent += p.mailSent          //simlint:crosspe barrier-ordered read inside the GVT stability window
				delivered += p.mailReceived //simlint:crosspe barrier-ordered read inside the GVT stability window
			}
			s.gvtStable.Store(sent == delivered)
		}
		if err := pe.await(); err != nil {
			return err
		}
		if s.gvtStable.Load() {
			if quiet != nil {
				s.fail(quiet)
				return quiet
			}
			return nil
		}
	}
}

// gvtRound is the synchronous shared-memory GVT computation, run by every
// PE together (cf. Fujimoto's GVT algorithm, which ROSS uses on shared
// memory). The round first reaches the no-mail-in-flight fixed point
// (commsFixedPoint), then takes GVT as the minimum pending event time
// across PEs, fossil-collects, and decides termination.
//
// It returns done=true when GVT has passed the end time and this PE has
// committed everything.
func (pe *PE) gvtRound() (bool, error) {
	s := pe.sim
	var t0 time.Time
	if pe.id == 0 {
		t0 = time.Now()
	}
	if err := pe.commsFixedPoint(); err != nil {
		return false, err
	}

	// All messages are now resident in pending queues; the local minimum
	// over live pending events bounds everything this PE can still do.
	local := TimeInfinity
	if ev, ok := pe.nextLive(); ok {
		local = ev.recvTime
	}
	s.localMins[pe.id] = local
	if err := pe.await(); err != nil {
		return false, err
	}
	if pe.id == 0 {
		gvt := TimeInfinity
		for _, m := range s.localMins {
			if m < gvt {
				gvt = m
			}
		}
		s.setGVT(gvt)
		n := s.gvtRounds.Add(1)
		if hook := s.cfg.OnGVT; hook != nil {
			hook(gvt)
		}
		if rec := s.cfg.Record; rec != nil {
			rec.GVTRound(n, gvt)
		}
		if gvt >= s.cfg.EndTime {
			s.finished.Store(true)
		}
		if s.checkpointDue(n, gvt) {
			// Published to the other PEs by the barrier below; every PE
			// routes into the rendezvous at the end of this round.
			s.ckptDue = true
		}
		s.gvtRequested.Store(false)
		pe.gvtLatency += time.Since(t0)
	}
	if err := pe.await(); err != nil {
		return false, err
	}
	done := s.finished.Load()
	gvt := s.GVT()
	if done {
		// Final round: every processed event is below the end time and can
		// never be rolled back; commit them all.
		gvt = TimeInfinity
	}
	pe.fossilCollect(gvt)
	if pe.opt != nil {
		pe.opt.observe(pe.processed, pe.rolledBackEvents)
	}
	if s.cfg.CheckInvariants {
		if err := pe.checkInvariants(gvt); err != nil {
			s.fail(err)
			return false, err
		}
	}
	// ckptDue is barrier-ordered: PE 0 wrote the flag inside this round,
	// before the barrier every PE crossed above.
	if !done && s.ckptDue {
		if err := pe.checkpointRendezvous(s.GVT()); err != nil {
			return false, err
		}
	}
	return done, nil
}
