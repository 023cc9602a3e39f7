package core

import (
	"fmt"
	"strings"
	"time"
)

// Counters is the kernel's one counter record: every count a run reports
// is declared here and nowhere else. Each worker — an optimistic PE, a
// conservative worker, the sequential engine — updates its own copy in
// place, without atomics, and its event pool keeps the Pool* counts in
// the same copy. PEStats and Stats embed the record, so each count reads
// as a field of the same name per PE and per run; add is the one fold
// between the two.
type Counters struct {
	// Processed counts every forward execution, including ones later
	// rolled back; Committed counts events that survived to fossil
	// collection — the sequential-equivalent work.
	Processed int64
	Committed int64

	// Event-pool counters (see pool.go). PoolHits are Sends served without
	// allocating, PoolMisses the ones that had to allocate a slab;
	// EventsRecycled counts events returned to the pool (which may have
	// been allocated on another PE — events migrate between pools),
	// PayloadsRecycled the spare payloads handlers took with LP.Spare.
	// PoolLive is the pool's net outstanding events (gets minus puts): one
	// pool's count can even go negative on a PE that frees more than it
	// allocates, but the sum over pools is exact net allocation. Its
	// high-water mark PoolLivePeak bounds each pool's share of the
	// optimistic memory footprint, and the peaks sum to a bound on the
	// event working set.
	PoolHits         int64
	PoolMisses       int64
	EventsRecycled   int64
	PayloadsRecycled int64
	PoolLive         int64
	PoolLivePeak     int64

	// Rollback counters. RolledBackEvents is the report's "Total Events
	// Rolled Back" (Figures 7a–c); a primary rollback is caused by a
	// straggler, a secondary one by an anti-message. ForcedRollbacks
	// counts rollbacks injected by the fault plan (Simulator.SetFaults;
	// always zero in production runs), and CanceledPending the
	// cancellations resolved lazily against a still-pending event.
	RolledBackEvents   int64
	PrimaryRollbacks   int64
	SecondaryRollbacks int64
	ForcedRollbacks    int64
	CanceledPending    int64

	// Comms counters (see mailbox.go). MailSent and MailReceived double
	// as each PE's shard of the in-flight message accounting the comms
	// fixed point sums between barriers (gvt.go). BatchesFlushed counts
	// outbox batches pushed into lanes, BatchedMessages the messages they
	// carried (AvgBatchSize is their ratio); MailboxPeak is the most
	// messages one drain pass applied. Parks counts times a PE slept
	// instead of spinning idle, Wakes the wakeups delivered to it (by mail
	// arrival, GVT requests or failure).
	MailSent        int64
	MailReceived    int64
	BatchesFlushed  int64
	BatchedMessages int64
	MailboxPeak     int64
	Parks           int64
	Wakes           int64

	// Memory-bound counters (see Simulator.SetMemoryBound). LivePeak is the
	// high-water mark of a PE's executed-but-uncommitted events — the
	// concurrent optimistic memory footprint the pressure valve bounds
	// (and, under copy state saving, the peak live snapshot count).
	// MemThrottles counts scheduler passes whose horizon the valve
	// narrowed; InvariantSweeps counts in-run invariant sweeps
	// (Simulator.SetParanoid).
	LivePeak        int64
	MemThrottles    int64
	InvariantSweeps int64

	// Busy is a PE's time in its run loop. GVTWait is its time blocked at
	// the kernel's barrier: checkpoint rendezvous and the one-time shutdown
	// drain. Token visits never wait (sender-side coverage; see
	// gvt_async.go), so a run without checkpoints only accrues the drain.
	// GVTLatency, nonzero on PE 0 only, totals round latency from token
	// launch to return. OptClamps counts scheduler passes where the
	// optimism controller's adaptive window (rather than MaxOptimism or the
	// end of the run) set the PE's horizon (see throttle.go).
	Busy       time.Duration
	GVTWait    time.Duration
	GVTLatency time.Duration
	OptClamps  int64
}

// add folds o into c. Every count sums, except the two per-PE high-water
// marks, MailboxPeak and LivePeak, which take the max: the run's deepest
// drain and largest concurrent live set on any one PE.
func (c *Counters) add(o *Counters) {
	c.Processed += o.Processed
	c.Committed += o.Committed
	c.PoolHits += o.PoolHits
	c.PoolMisses += o.PoolMisses
	c.EventsRecycled += o.EventsRecycled
	c.PayloadsRecycled += o.PayloadsRecycled
	c.PoolLive += o.PoolLive
	c.PoolLivePeak += o.PoolLivePeak
	c.RolledBackEvents += o.RolledBackEvents
	c.PrimaryRollbacks += o.PrimaryRollbacks
	c.SecondaryRollbacks += o.SecondaryRollbacks
	c.ForcedRollbacks += o.ForcedRollbacks
	c.CanceledPending += o.CanceledPending
	c.MailSent += o.MailSent
	c.MailReceived += o.MailReceived
	c.BatchesFlushed += o.BatchesFlushed
	c.BatchedMessages += o.BatchedMessages
	c.MailboxPeak = max(c.MailboxPeak, o.MailboxPeak)
	c.Parks += o.Parks
	c.Wakes += o.Wakes
	c.LivePeak = max(c.LivePeak, o.LivePeak)
	c.MemThrottles += o.MemThrottles
	c.InvariantSweeps += o.InvariantSweeps
	c.Busy += o.Busy
	c.GVTWait += o.GVTWait
	c.GVTLatency += o.GVTLatency
	c.OptClamps += o.OptClamps
}

// PEStats is one worker's counter record, tagged with its index.
type PEStats struct {
	ID int
	Counters
}

// Stats summarises a run of the kernel. Its Counters are the run's totals,
// every worker's record folded by add. The difference between Processed
// and Committed, RolledBackEvents, is the report's "Total Events Rolled
// Back" (Figures 7a–c), and EventRate is its "events per second" (Figures
// 5, 8).
type Stats struct {
	Counters
	// GVTRounds counts completed GVT rounds (on the conservative engine,
	// windows, which play GVT's role).
	GVTRounds int64
	NumPEs    int
	NumKPs    int
	Wall      time.Duration
	// The rates newStats derives from the totals. PoolHitRate approaches 1
	// at steady state, when the event loop stops touching the allocator.
	EventRate    float64 // committed events per wall-clock second
	Efficiency   float64 // committed / processed
	PoolHitRate  float64 // PoolHits / (PoolHits + PoolMisses)
	AvgBatchSize float64 // BatchedMessages / BatchesFlushed
	// PeakLiveEvents sums the per-KP high-water marks of executed-but-
	// uncommitted events: the optimistic memory footprint in events.
	PeakLiveEvents int
	// PEs holds each optimistic PE's own record; the other engines leave
	// it empty.
	PEs []PEStats
}

// newStats is every engine's Run epilogue: it folds the workers' records
// into the run's totals and derives the rates from them.
func newStats(wall time.Duration, numKPs int, workers []PEStats) *Stats {
	st := &Stats{NumPEs: len(workers), NumKPs: numKPs, Wall: wall}
	for i := range workers {
		st.add(&workers[i].Counters)
	}
	if secs := wall.Seconds(); secs > 0 {
		st.EventRate = float64(st.Committed) / secs
	}
	if st.Processed > 0 {
		st.Efficiency = float64(st.Committed) / float64(st.Processed)
	}
	if total := st.PoolHits + st.PoolMisses; total > 0 {
		st.PoolHitRate = float64(st.PoolHits) / float64(total)
	}
	if st.BatchesFlushed > 0 {
		st.AvgBatchSize = float64(st.BatchedMessages) / float64(st.BatchesFlushed)
	}
	return st
}

// collectStats folds every PE's record into one Stats snapshot. It runs
// only after Run has joined all PE goroutines, so each PE's counter writes
// happen-before these reads.
//
//simlint:crosspe post-Run read; the goroutine joins order all PE counter writes before this
func (s *Simulator) collectStats(wall time.Duration) *Stats {
	pes := make([]PEStats, len(s.pes))
	for i, pe := range s.pes {
		pes[i] = PEStats{ID: pe.id, Counters: pe.stats}
		pes[i].Wakes = pe.wakes.Load()
	}
	st := newStats(wall, len(s.kps), pes)
	st.GVTRounds = s.roundsDone.Load()
	st.PEs = pes
	for _, kp := range s.kps {
		st.PeakLiveEvents += kp.peakLive
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
