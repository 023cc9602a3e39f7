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
// PE's gvtWait shard. The barrier only ever gathers the PEs at a checkpoint
// rendezvous and at the shutdown drain; GVT rounds themselves never wait.
func (pe *PE) await() error {
	t0 := time.Now()
	err := pe.sim.bar.await()
	pe.gvtWait += time.Since(t0)
	return err
}

// requestGVT asks for a GVT computation at the next opportunity: PE 0
// launches the token's next circulation. Under the GVTDelay fault only
// every (n+1)-th request goes through; a suppressed request is safe because
// every path that needs GVT to advance (idle spin, optimism throttle, batch
// quota) re-requests until the round actually happens.
func (s *Simulator) requestGVT() {
	if f := s.faults; f != nil && f.GVTDelay > 0 {
		if s.gvtDelayed.Add(1)%int64(f.GVTDelay+1) != 0 {
			return
		}
	}
	// Parked PEs must notice the request — PE 0 to launch the token; wake
	// them. (A PE that checks gvtRequested after this store never parks, so
	// no sleeper is missed; the Swap makes an already-pending request
	// free.)
	if !s.gvtRequested.Swap(true) {
		s.wakeAll()
	}
}

// commsFixedPoint drives every PE to the point where no message is in
// flight: each repeatedly force-flushes its outbox and drains its lanes
// (which may trigger rollbacks that send further anti-messages) until the
// sent and delivered counts agree. The fixed point only needs the
// in-flight count to agree, not a live global count, so the counters are
// sharded: each PE owns plain mailSent/mailReceived fields and PE 0 sums
// them between barriers. The barrier's mutex orders every PE's writes
// before PE 0's reads (and PE 0's reads before anyone's next write), so no
// atomics are needed. mailSent is bumped at outbox-append time, which
// makes the fixed point cover outboxes and lanes alike: mail held anywhere
// keeps the loop unstable.
//
// This is the kernel's only stop-the-world step. Callers: the checkpoint
// rendezvous (checkpoint.go), which needs every message resident in a
// pending queue before it can capture a consistent cut, and the one-time
// shutdown drain (asyncShutdown).
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
		if s.paranoid {
			quiet = pe.checkQuiescentComms()
		}
		if pe.id == 0 {
			var sent, delivered int64
			for _, p := range s.pes {
				// The barrier just crossed orders every PE's counter writes
				// before these reads, and the next barrier holds the PEs
				// until PE0 is done reading.
				sent += p.mailSent          //simlint:crosspe barrier-ordered read inside the comms fixed point's stability window
				delivered += p.mailReceived //simlint:crosspe barrier-ordered read inside the comms fixed point's stability window
			}
			s.commsStable.Store(sent == delivered)
		}
		if err := pe.await(); err != nil {
			return err
		}
		if s.commsStable.Load() {
			if quiet != nil {
				s.fail(quiet)
				return quiet
			}
			return nil
		}
	}
}
