package core

import (
	"fmt"
	"strings"
	"time"
)

// PEStats are per-processing-element kernel counters.
type PEStats struct {
	ID                 int
	Processed          int64
	Committed          int64
	RolledBackEvents   int64
	PrimaryRollbacks   int64
	SecondaryRollbacks int64
	// ForcedRollbacks counts rollbacks injected by the fault plan
	// (Config.Faults); always zero in production runs.
	ForcedRollbacks int64
	MailSent        int64
	MailReceived    int64
	Busy            time.Duration
	// GVTWait is the time this PE spent blocked at the kernel's barrier:
	// checkpoint rendezvous and the one-time shutdown drain. Token visits
	// never wait (sender-side coverage; see gvt_async.go), so a run without
	// checkpoints only accrues the drain. GVTLatency, nonzero on PE 0 only,
	// totals round latency from token launch to return. OptClamps counts
	// scheduler passes where the adaptive optimism window (rather than a
	// static bound) clamped this PE's horizon.
	GVTWait    time.Duration
	GVTLatency time.Duration
	OptClamps  int64

	// Comms counters (see mailbox.go). BatchesFlushed counts outbox
	// batches pushed into lanes, BatchedMessages the messages they
	// carried (their ratio is the average coalesced batch size);
	// MailboxPeak is the most messages one drain pass applied. Parks
	// counts times this PE slept instead of spinning idle, Wakes the
	// wakeups delivered to it (by mail arrival, GVT requests or failure).
	BatchesFlushed  int64
	BatchedMessages int64
	MailboxPeak     int64
	Parks           int64
	Wakes           int64

	// Memory-bound counters (see Config.MaxLiveEvents). LivePeak is the
	// high-water mark of this PE's executed-but-uncommitted events — the
	// concurrent optimistic memory footprint the pressure valve bounds
	// (and, under copy state saving, the peak live snapshot count).
	// MemThrottles counts scheduler passes run with the valve engaged;
	// InvariantSweeps counts in-run invariant sweeps performed
	// (Config.InvariantSweep).
	LivePeak        int64
	MemThrottles    int64
	InvariantSweeps int64

	// Event-pool counters (see pool.go). PoolHits are Sends served without
	// allocating, PoolMisses the ones that had to allocate a slab;
	// EventsRecycled counts events returned to this PE's pool (which may
	// have been allocated on another PE — events migrate between pools),
	// PayloadsRecycled the spare payloads handlers took with LP.Spare.
	PoolHits         int64
	PoolMisses       int64
	EventsRecycled   int64
	PayloadsRecycled int64
	// PoolLivePeak is this pool's high-water mark of net outstanding
	// events; summed over PEs it bounds the event working set.
	PoolLivePeak int64
}

// KPStats are per-kernel-process counters — the rollback-locality data
// behind the report's Figure 7 discussion.
type KPStats struct {
	ID                 int
	PE                 int
	Committed          int64
	RolledBackEvents   int64
	PrimaryRollbacks   int64
	SecondaryRollbacks int64
	// PeakLiveEvents is the high-water mark of executed-but-uncommitted
	// events, the KP's contribution to optimistic memory pressure.
	PeakLiveEvents int
}

// Stats summarises a run of the kernel. Processed counts every forward
// execution including ones later rolled back; Committed counts events that
// survived to fossil collection — the sequential-equivalent work. The
// difference, RolledBackEvents, is the report's "Total Events Rolled Back"
// (Figures 7a–c), and EventRate is its "events per second" (Figures 5, 8).
type Stats struct {
	Processed          int64
	Committed          int64
	RolledBackEvents   int64
	PrimaryRollbacks   int64
	SecondaryRollbacks int64
	ForcedRollbacks    int64
	MailSent           int64
	MailReceived       int64
	GVTRounds          int64
	// GVTLatency is the total round latency (token launch to return) and
	// GVTWait the summed per-PE time blocked at the kernel's barrier
	// (checkpoint rendezvous and shutdown drain; see PEStats). OptClamps
	// totals the passes clamped by the adaptive optimism window, which
	// every multi-PE run arms (see throttle.go).
	GVTLatency time.Duration
	GVTWait    time.Duration
	OptClamps  int64
	NumPEs     int
	NumKPs     int
	Wall       time.Duration
	EventRate  float64 // committed events per wall-clock second
	Efficiency float64 // committed / processed
	// PeakLiveEvents sums the per-KP high-water marks: the optimistic
	// memory footprint in events.
	PeakLiveEvents int
	// LivePeak is the largest concurrent per-PE live-event count seen on
	// any PE — the number the pressure valve (Config.MaxLiveEvents)
	// bounds. MemThrottles totals the passes PEs ran with the valve
	// engaged (0 in unbounded runs); InvariantSweeps totals the in-run
	// invariant sweeps (Config.InvariantSweep).
	LivePeak        int64
	MemThrottles    int64
	InvariantSweeps int64
	// Event-pool totals across all pools: allocations avoided (PoolHits),
	// slabs allocated (PoolMisses), events recycled and payloads reissued,
	// and the summed per-pool live high-water mark. PoolHitRate is
	// PoolHits/(PoolHits+PoolMisses) — at steady state it approaches 1 and
	// the event loop stops touching the allocator.
	PoolHits         int64
	PoolMisses       int64
	EventsRecycled   int64
	PayloadsRecycled int64
	PoolLivePeak     int64
	PoolHitRate      float64
	// Comms totals across PEs: coalescing effectiveness (batches flushed,
	// messages batched, their ratio as AvgBatchSize), the deepest single
	// mailbox drain on any PE, and the park/wake traffic of idle PEs.
	BatchesFlushed  int64
	BatchedMessages int64
	AvgBatchSize    float64
	MailboxPeak     int64
	Parks           int64
	Wakes           int64
	PEs             []PEStats
	KPs             []KPStats
}

// addPool folds one pool's counters (carried in a PEStats record) into the
// run-level totals.
func (st *Stats) addPool(ps PEStats) {
	st.PoolHits += ps.PoolHits
	st.PoolMisses += ps.PoolMisses
	st.EventsRecycled += ps.EventsRecycled
	st.PayloadsRecycled += ps.PayloadsRecycled
	st.PoolLivePeak += ps.PoolLivePeak
}

// finishPools derives the hit rate once every pool has been folded in.
func (st *Stats) finishPools() {
	if total := st.PoolHits + st.PoolMisses; total > 0 {
		st.PoolHitRate = float64(st.PoolHits) / float64(total)
	}
}

// collectStats folds every PE's sharded counters into one Stats
// snapshot. It runs only after Run has joined all PE goroutines, so each
// PE's counter writes happen-before these reads.
//
//simlint:crosspe post-Run read; the goroutine joins order all PE counter writes before this
func (s *Simulator) collectStats(wall time.Duration) *Stats {
	st := &Stats{
		GVTRounds: s.roundsDone.Load(),
		NumPEs:    len(s.pes),
		NumKPs:    len(s.kps),
		Wall:      wall,
	}
	for _, pe := range s.pes {
		ps := PEStats{
			ID:                 pe.id,
			Processed:          pe.processed,
			Committed:          pe.committed,
			RolledBackEvents:   pe.rolledBackEvents,
			PrimaryRollbacks:   pe.primaryRollbacks,
			SecondaryRollbacks: pe.secondaryRollbacks,
			ForcedRollbacks:    pe.forcedRollbacks,
			MailSent:           pe.mailSent,
			MailReceived:       pe.mailReceived,
			Busy:               pe.busy,
			GVTWait:            pe.gvtWait,
			GVTLatency:         pe.gvtLatency,
			OptClamps:          pe.optClamps,
			BatchesFlushed:     pe.batchesFlushed,
			BatchedMessages:    pe.batchedMessages,
			MailboxPeak:        pe.mailboxPeak,
			LivePeak:           pe.livePeak,
			MemThrottles:       pe.memThrottles,
			InvariantSweeps:    pe.invariantSweeps,
			Parks:              pe.parks,
			Wakes:              pe.wakes.Load(),
		}
		pe.pool.addTo(&ps)
		st.addPool(ps)
		st.PEs = append(st.PEs, ps)
		st.Processed += ps.Processed
		st.Committed += ps.Committed
		st.RolledBackEvents += ps.RolledBackEvents
		st.PrimaryRollbacks += ps.PrimaryRollbacks
		st.SecondaryRollbacks += ps.SecondaryRollbacks
		st.ForcedRollbacks += ps.ForcedRollbacks
		st.MailSent += ps.MailSent
		st.MailReceived += ps.MailReceived
		st.BatchesFlushed += ps.BatchesFlushed
		st.BatchedMessages += ps.BatchedMessages
		if ps.MailboxPeak > st.MailboxPeak {
			st.MailboxPeak = ps.MailboxPeak
		}
		if ps.LivePeak > st.LivePeak {
			st.LivePeak = ps.LivePeak
		}
		st.MemThrottles += ps.MemThrottles
		st.InvariantSweeps += ps.InvariantSweeps
		st.Parks += ps.Parks
		st.Wakes += ps.Wakes
		st.GVTWait += ps.GVTWait
		st.GVTLatency += ps.GVTLatency
		st.OptClamps += ps.OptClamps
	}
	if st.BatchesFlushed > 0 {
		st.AvgBatchSize = float64(st.BatchedMessages) / float64(st.BatchesFlushed)
	}
	for _, kp := range s.kps {
		st.KPs = append(st.KPs, KPStats{
			ID:                 kp.id,
			PE:                 kp.pe.id,
			Committed:          kp.committed,
			RolledBackEvents:   kp.rolledBackEvents,
			PrimaryRollbacks:   kp.primaryRollbacks,
			SecondaryRollbacks: kp.secondaryRollbacks,
			PeakLiveEvents:     kp.peakLive,
		})
		st.PeakLiveEvents += kp.peakLive
	}
	st.finishPools()
	if secs := wall.Seconds(); secs > 0 {
		st.EventRate = float64(st.Committed) / secs
	}
	if st.Processed > 0 {
		st.Efficiency = float64(st.Committed) / float64(st.Processed)
	}
	return st
}

// String renders the statistics block in the spirit of the report's sample
// output (Attachment 3).
func (st *Stats) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "kernel: PEs=%d KPs=%d wall=%v\n", st.NumPEs, st.NumKPs, st.Wall.Round(time.Millisecond))
	fmt.Fprintf(&b, "  events committed:   %d\n", st.Committed)
	fmt.Fprintf(&b, "  events processed:   %d\n", st.Processed)
	fmt.Fprintf(&b, "  events rolled back: %d\n", st.RolledBackEvents)
	fmt.Fprintf(&b, "  rollbacks:          %d primary, %d secondary\n", st.PrimaryRollbacks, st.SecondaryRollbacks)
	if st.ForcedRollbacks > 0 {
		fmt.Fprintf(&b, "  forced rollbacks:   %d (fault injection)\n", st.ForcedRollbacks)
	}
	fmt.Fprintf(&b, "  remote messages:    %d sent, %d received\n", st.MailSent, st.MailReceived)
	if st.BatchesFlushed > 0 || st.Parks > 0 {
		fmt.Fprintf(&b, "  comms:              %d batches (avg %.1f msgs), peak drain %d, %d parks, %d wakes\n",
			st.BatchesFlushed, st.AvgBatchSize, st.MailboxPeak, st.Parks, st.Wakes)
	}
	avgLatency := time.Duration(0)
	if st.GVTRounds > 0 {
		avgLatency = st.GVTLatency / time.Duration(st.GVTRounds)
	}
	fmt.Fprintf(&b, "  GVT rounds:         %d (avg latency %v, %v total wait)\n",
		st.GVTRounds, avgLatency.Round(time.Microsecond), st.GVTWait.Round(time.Microsecond))
	if st.OptClamps > 0 {
		fmt.Fprintf(&b, "  adaptive optimism:  %d clamped passes\n", st.OptClamps)
	}
	fmt.Fprintf(&b, "  peak live events:   %d (peak %d concurrent on one PE)\n", st.PeakLiveEvents, st.LivePeak)
	if st.MemThrottles > 0 {
		fmt.Fprintf(&b, "  memory valve:       %d throttled passes\n", st.MemThrottles)
	}
	if st.InvariantSweeps > 0 {
		fmt.Fprintf(&b, "  invariant sweeps:   %d in-run\n", st.InvariantSweeps)
	}
	fmt.Fprintf(&b, "  events recycled:    %d (pool hit rate %.3f, %d allocs avoided)\n",
		st.EventsRecycled, st.PoolHitRate, st.PoolHits)
	if st.PayloadsRecycled > 0 {
		fmt.Fprintf(&b, "  payloads recycled:  %d\n", st.PayloadsRecycled)
	}
	fmt.Fprintf(&b, "  event rate:         %.0f events/s\n", st.EventRate)
	fmt.Fprintf(&b, "  efficiency:         %.3f committed/processed\n", st.Efficiency)
	return b.String()
}
