package core

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/eventq"
	"repro/internal/topology"
)

// Config parameterises a simulation run.
type Config struct {
	// NumLPs is the number of logical processes; required.
	NumLPs int
	// NumPEs is the number of processing elements (goroutines). Defaults
	// to GOMAXPROCS, capped at NumLPs.
	NumPEs int
	// NumKPs is the number of kernel processes. Defaults to 16 per PE
	// (clamped to NumLPs); the report's model uses 64 total.
	NumKPs int
	// EndTime is the virtual time horizon; events at or beyond it never
	// execute. Required and must be positive.
	EndTime Time
	// BatchSize is the number of events a PE executes between scheduler
	// checks (mailbox drains, GVT flags). Default 32.
	BatchSize int
	// GVTInterval is the number of batches between GVT rounds: a PE that
	// has executed BatchSize*GVTInterval events since the last completed
	// round requests the next one and stops executing until it completes
	// (the speculation quota; see pe.go). Default 16.
	//
	// GVT itself is a Mattern-style token circulating over the mail lanes
	// (gvt_async.go): no PE ever blocks on it, each learns new estimates
	// from the token and fossil-collects on its own schedule. Because the
	// rounds never pause anyone, every multi-PE run's optimism controller
	// (throttle.go) adapts its window, which keeps unthrottled
	// speculation on tightly coupled models from collapsing into cascade
	// thrash where GVT barely advances.
	GVTInterval int
	// MaxOptimism, when positive, bounds speculation: a PE will not
	// execute events more than this far beyond the last GVT estimate
	// (ROSS's max_opt_lookahead). It is the cap of each PE's optimism
	// controller (throttle.go), whose adaptive window only ever tightens
	// it; a single-PE run holds the window at the cap. It trades idle time
	// for rollback volume — useful when PEs outnumber cores and one PE can
	// race far ahead while another is descheduled. 0 means the whole run.
	MaxOptimism Time
	// Seed offsets every LP's random stream, so distinct seeds give
	// statistically independent runs while identical seeds reproduce runs
	// exactly (regardless of PE/KP counts).
	Seed uint64
	// KPOfLP optionally overrides the LP→KP mapping. The default tiles a
	// √NumLPs-square grid into rectangular KP blocks (the report's
	// locality-preserving mapping) when NumLPs is a perfect square, and
	// splits LPs into contiguous runs otherwise.
	KPOfLP func(lp int) int
	// PEOfKP optionally overrides the KP→PE mapping. The default groups
	// contiguous KPs.
	PEOfKP func(kp int) int
}

// resolve fills cfg's defaults, validates it, and returns the placement of
// every LP under its mapping. Every engine builds through here.
func (cfg *Config) resolve() ([]lpPlace, error) {
	if cfg.NumLPs <= 0 {
		return nil, errors.New("core: Config.NumLPs must be positive")
	}
	if !(cfg.EndTime > 0) {
		return nil, errors.New("core: Config.EndTime must be positive")
	}
	if cfg.NumPEs <= 0 {
		cfg.NumPEs = runtime.GOMAXPROCS(0)
	}
	if cfg.NumPEs > cfg.NumLPs {
		cfg.NumPEs = cfg.NumLPs
	}
	if cfg.NumKPs <= 0 {
		cfg.NumKPs = 16 * cfg.NumPEs
	}
	if cfg.NumKPs > cfg.NumLPs {
		cfg.NumKPs = cfg.NumLPs
	}
	if cfg.NumKPs < cfg.NumPEs {
		cfg.NumKPs = cfg.NumPEs
	}
	if cfg.BatchSize <= 0 {
		cfg.BatchSize = 32
	}
	if cfg.GVTInterval <= 0 {
		cfg.GVTInterval = 16
	}
	if cfg.KPOfLP == nil || cfg.PEOfKP == nil {
		side := int(math.Round(math.Sqrt(float64(cfg.NumLPs))))
		if side*side == cfg.NumLPs && side >= 2 {
			m := topology.NewBlockMapping(side, cfg.NumKPs, cfg.NumPEs)
			cfg.NumKPs = m.NumKPs()
			cfg.NumPEs = m.NumPEs()
			if cfg.KPOfLP == nil {
				cfg.KPOfLP = m.KPOfLP
			}
			if cfg.PEOfKP == nil {
				cfg.PEOfKP = m.PEOfKP
			}
		} else {
			nLPs, nKPs, nPEs := cfg.NumLPs, cfg.NumKPs, cfg.NumPEs
			if cfg.KPOfLP == nil {
				cfg.KPOfLP = func(lp int) int { return lp * nKPs / nLPs }
			}
			if cfg.PEOfKP == nil {
				cfg.PEOfKP = func(kp int) int { return kp * nPEs / nKPs }
			}
		}
	}
	// One range check serves all three engines (Sequential runs every LP
	// itself but still rejects a placement the parallel engines would).
	peOfKP := make([]int32, cfg.NumKPs)
	for kp := range peOfKP {
		pe := cfg.PEOfKP(kp)
		if pe < 0 || pe >= cfg.NumPEs {
			return nil, fmt.Errorf("core: PEOfKP(%d) = %d out of range", kp, pe)
		}
		peOfKP[kp] = int32(pe)
	}
	place := make([]lpPlace, cfg.NumLPs)
	for lp := range place {
		kp := cfg.KPOfLP(lp)
		if kp < 0 || kp >= cfg.NumKPs {
			return nil, fmt.Errorf("core: KPOfLP(%d) = %d out of range", lp, kp)
		}
		place[lp] = lpPlace{kp: int32(kp), pe: peOfKP[kp]}
	}
	return place, nil
}

// Simulator is the optimistic parallel kernel. Build one with New, attach
// handlers and bootstrap events, then Run.
type Simulator struct {
	cfg Config
	// The harness hooks, armed by the Set* methods before Run and only
	// read during it, so they sit with cfg, away from the atomics below.
	// record streams kernel occurrences to the record/replay subsystem
	// (SetRecord); nil disables recording at one pointer test per site.
	// paranoid turns on the invariant checks and sweepEvery, when
	// positive, also runs them every sweepEvery scheduler passes
	// (SetParanoid). faults is the armed fault plan (SetFaults).
	record     RecordSink
	sweepEvery int
	paranoid   bool
	faults     *Faults

	lpTable
	kps []*KP
	pes []*PE

	bar          *barrier
	gvtDelayed   atomic.Int64
	gvtRequested atomic.Bool
	commsStable  atomic.Bool
	finished     atomic.Bool
	gvtBits      atomic.Uint64
	roundsDone   atomic.Int64

	// token is the circulating GVT token's state; see gvt_async.go.
	token gvtToken

	// Periodic checkpointing (SetCheckpoint; see checkpoint.go).
	// completeRound publishes ckptPending atomically and every PE's next
	// asyncPass routes into the rendezvous. ckptLastRound and ckptLastGVT —
	// the round count and estimate of the last capture — are PE 0's
	// bookkeeping only, as is ckptState, the cut refilled at every capture.
	ckptSink      CheckpointSink
	ckptEvery     int64
	ckptPending   atomic.Bool
	ckptLastRound int64
	ckptLastGVT   Time
	ckptState     CheckpointState

	failOnce sync.Once
	failErr  error
}

// New builds a simulator: LPs, their KP/PE placement, queues and random
// streams. Attach model handlers with ForEachLP or LP before calling Run.
//
//simlint:crosspe construction: the PE goroutines have not started, and Run's goroutine spawn orders these writes before them
func New(cfg Config) (*Simulator, error) {
	place, err := cfg.resolve()
	if err != nil {
		return nil, err
	}
	s := &Simulator{cfg: cfg}
	s.kps = make([]*KP, cfg.NumKPs)
	s.pes = make([]*PE, cfg.NumPEs)
	for i := range s.pes {
		s.pes[i] = &PE{
			id:     i,
			sim:    s,
			lanes:  make([]lane, cfg.NumPEs),
			wakeCh: make(chan struct{}, 1),
		}
		s.pes[i].pool.stats = &s.pes[i].stats
		s.pes[i].bindReclaim()
		s.pes[i].outbox.bufs = make([][]mail, cfg.NumPEs)
	}
	for i := range s.kps {
		kp := &KP{id: i}
		s.kps[i] = kp
		pe := s.pes[cfg.PEOfKP(i)]
		pe.kps = append(pe.kps, kp)
	}
	s.build(cfg.Seed, place, true, func(pe int32) (engine, *eventPool) {
		return s.pes[pe], &s.pes[pe].pool
	})
	for _, pe := range s.pes {
		pe.pending = newEventQueue()
	}
	s.bar = newBarrier(cfg.NumPEs)
	for _, pe := range s.pes {
		pe.outMin = make([]Time, cfg.NumPEs)
		for d := range pe.outMin {
			pe.outMin[d] = TimeInfinity
		}
		pe.epochs = make([][]outEpoch, cfg.NumPEs)
		pe.opt = newOptimismController(&s.cfg, runtime.GOMAXPROCS(0))
	}
	s.setGVT(0)
	return s, nil
}

// streamID spaces LP streams so different seeds and different LPs never
// collide in practice.
func streamID(seed uint64, lp int) uint64 {
	return seed*0x9E3779B1 + uint64(lp)
}

// newEventQueue builds a pending queue ordered by the kernel's total
// event order; shared by all three engines. The ladder buckets by receive
// time, which is monotone with respect to before(), whose first field is
// recvTime.
func newEventQueue() *eventq.Ladder[*Event] {
	return eventq.NewLadder((*Event).before, func(e *Event) float64 { return float64(e.recvTime) })
}

// peOf returns the PE that executes dst and kpOf the KP that holds it.
// Both read only the placement table and the KP and PE lists, which nothing
// writes during a run, never the LP or KP record the owning PE writes.
func (s *Simulator) peOf(dst LPID) *PE { return s.pes[s.place[dst].pe] }
func (s *Simulator) kpOf(dst LPID) *KP { return s.kps[s.place[dst].kp] }

// NumKPs returns the number of kernel processes after mapping adjustment.
func (s *Simulator) NumKPs() int { return len(s.kps) }

// NumPEs returns the number of processing elements after mapping
// adjustment.
func (s *Simulator) NumPEs() int { return len(s.pes) }

// SetRecord attaches a record sink that receives kernel occurrences (mail
// batches, rollbacks, GVT rounds); see RecordSink. It must be called before
// Run; models construct the kernel Config internally, so this is how the
// replay subsystem reaches a model-built simulator. nil detaches.
func (s *Simulator) SetRecord(r RecordSink) {
	if s.ran {
		panic("core: SetRecord after Run")
	}
	s.record = r
}

// SetMemoryBound arms the fossil-collection pressure valve: once a PE holds
// maxLive executed-but-uncommitted events (which is also its count of live
// state saves — one snapshot per uncommitted event under copy state
// saving), its optimism controller narrows the horizon below the adaptive
// window's floor until fossil collection drains it back under budget (see
// throttle.go). Scheduling-only, so committed results are unaffected. Like
// SetRecord, this is how harnesses reach a model-built simulator; it must
// be called before Run. maxLive <= 0 disarms the valve.
func (s *Simulator) SetMemoryBound(maxLive int) {
	if s.ran {
		panic("core: SetMemoryBound after Run")
	}
	if maxLive < 0 {
		maxLive = 0
	}
	for _, pe := range s.pes {
		pe.opt.budget = int64(maxLive)
	}
}

// SetParanoid enables paranoid mode: whenever a PE fossil-collects against
// a new GVT estimate, and at the shutdown drain, it validates its
// structural invariants (processed-list ordering, straggler
// postconditions, ownership, event lifecycle); the comms fixed point
// additionally checks that no mail is left behind. When sweepEvery is
// positive each PE also validates its own structures every sweepEvery
// scheduler passes, without waiting for a GVT round: the checks touch only
// PE-owned state, so no quiescence is needed, and the cost is a full
// pending-queue scan per sweep. That is what the soak harness relies on,
// since hours-scale runs cannot wait for a round boundary to notice
// corruption. Intended for model development and the test suite, not
// production runs. Must be called before Run.
func (s *Simulator) SetParanoid(sweepEvery int) {
	if s.ran {
		panic("core: SetParanoid after Run")
	}
	s.paranoid = true
	if sweepEvery > 0 {
		s.sweepEvery = sweepEvery
	}
}

// SetFaults arms the kernel's fault injectors (forced rollbacks, GVT
// delay, mail perturbation, PE throttling) with plan; see Faults. A plan
// can come from a recording on disk, so an invalid one is an error, not a
// panic. Must be called before Run; nil disarms.
func (s *Simulator) SetFaults(plan *Faults) error {
	if s.ran {
		panic("core: SetFaults after Run")
	}
	if plan != nil {
		if err := plan.validate(); err != nil {
			return err
		}
	}
	s.faults = plan
	for _, pe := range s.pes {
		pe.faults = nil
		if plan != nil {
			pe.faults = newPEFaults(plan, pe.id)
		}
	}
	return nil
}

// GVT returns the last computed global virtual time.
func (s *Simulator) GVT() Time {
	return Time(math.Float64frombits(s.gvtBits.Load()))
}

func (s *Simulator) setGVT(t Time) {
	s.gvtBits.Store(math.Float64bits(float64(t)))
}

func (s *Simulator) fail(err error) {
	s.failOnce.Do(func() {
		s.failErr = err
		// Every PE — including parked ones, once woken — sees finished at
		// its next asyncPass and enters the shutdown drain, where the
		// poisoned barrier surfaces the failure.
		s.finished.Store(true)
		s.bar.poison()
		s.wakeAll()
	})
}

// Run executes the simulation to completion and returns kernel statistics.
// It may be called once.
func (s *Simulator) Run() (*Stats, error) {
	err := s.start(func(ev *Event) { s.peOf(ev.dst).insert(ev) })
	if err != nil {
		return nil, err
	}

	start := time.Now()
	var wg sync.WaitGroup
	errs := make([]error, len(s.pes))
	for i, pe := range s.pes {
		wg.Add(1)
		go func(i int, pe *PE) {
			defer wg.Done()
			errs[i] = pe.run()
		}(i, pe)
	}
	wg.Wait()
	// A sink that publishes in the background finishes here, on every
	// return path, so a nil error means the last capture is durable and no
	// publication outlives Run.
	var flushErr error
	if f, ok := s.ckptSink.(interface{ Flush() error }); ok {
		flushErr = f.Flush()
	}
	wall := time.Since(start)

	if s.failErr != nil {
		return nil, s.failErr
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	if flushErr != nil {
		return nil, flushErr
	}
	return s.collectStats(wall), nil
}
