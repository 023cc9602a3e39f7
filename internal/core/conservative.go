package core

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/internal/eventq"
)

// Conservative is a window-synchronous conservative parallel executor —
// the classical alternative to Time Warp that the optimistic literature
// (and this repository's comparison experiment) measures against.
//
// It relies on a model-declared Lookahead: a strictly positive lower
// bound on every event's send delay. Events in the half-open window
// [T, T+Lookahead), where T is the global minimum pending time, cannot
// affect each other across LPs (anything they send lands at or beyond
// T+Lookahead), so all PEs may execute their share of the window in
// parallel with no possibility of rollback. The engine barriers between
// windows to agree on the next T.
//
// Its performance lives and dies by the lookahead-to-activity ratio: the
// hot-potato model's sub-step schedule offers a usable lookahead (0.05
// steps), while models that forward messages in nanoseconds (qnet)
// degenerate to one barrier per event — which is exactly the argument for
// optimistic synchronisation, reproduced here as an experiment.
//
// Results are bit-identical to the Sequential engine: within a window,
// cross-LP events are independent, and each PE executes its own LPs'
// events in the kernel's total order.
type Conservative struct {
	lpTable
	cfg       Config
	lookahead Time
	pes       []*consPE
	bar       *barrier

	windowMins []Time
	windowEnd  Time // current window [start, end) shared after barrier
	done       bool

	failOnce sync.Once
	failErr  error

	windows int64
}

// consPE is one conservative worker: a pending queue and an inbox, no
// rollback machinery. inbox[s] holds the events PE s sent here during the
// current window. Only s appends to it during the window and only this PE
// drains it after the window's closing barrier, which orders every append
// before the drain, so no lock is needed; each slice grows as far as one
// window needs and is reused. The event pool follows the same ownership
// rule as the optimistic kernel's: allocation on the sender's pool, free on
// the destination's — and within a window the destination PE is the only
// one touching the event.
type consPE struct {
	id      int
	sim     *Conservative
	pending *eventq.Ladder[*Event]
	inbox   [][]*Event
	pool    eventPool
	stats   Counters //simlint:owned
}

// NewConservative builds the conservative engine. lookahead must be a
// strictly positive lower bound on every send delay the model performs;
// the engine enforces it at Send time and fails the run on violation.
//
//simlint:crosspe construction: the worker goroutines have not started, and Run's goroutine spawn orders these writes before them
func NewConservative(cfg Config, lookahead Time) (*Conservative, error) {
	place, err := cfg.resolve()
	if err != nil {
		return nil, err
	}
	if !(lookahead > 0) {
		return nil, errors.New("core: conservative lookahead must be positive")
	}
	c := &Conservative{cfg: cfg, lookahead: lookahead}
	c.pes = make([]*consPE, cfg.NumPEs)
	for i := range c.pes {
		pe := &consPE{id: i, sim: c, inbox: make([][]*Event, cfg.NumPEs)}
		pe.pending = newEventQueue()
		pe.pool.stats = &pe.stats
		c.pes[i] = pe
	}
	c.build(cfg.Seed, place, false, func(pe int32) (engine, *eventPool) {
		return c.pes[pe], &c.pes[pe].pool
	})
	c.bar = newBarrier(cfg.NumPEs)
	c.windowMins = make([]Time, cfg.NumPEs)
	return c, nil
}

// peOf returns the worker that executes dst, read from the placement table
// rather than from dst's LP record, which that worker writes at every event.
func (c *Conservative) peOf(dst LPID) *consPE { return c.pes[c.place[dst].pe] }

// scheduleNew implements engine: route to the owning PE, enforcing the
// declared lookahead. The sender is recovered from the event's src — Send
// is only legal during Forward, so the source LP's current event is the
// one that produced ev.
func (pe *consPE) scheduleNew(ev *Event) {
	c := pe.sim
	from := c.lps[ev.src]
	// Allow a ULP of slack: recvTime is now+delay after rounding, so an
	// exactly-lookahead delay can land a hair below it.
	if delay := ev.recvTime - from.cur.recvTime; delay < c.lookahead-c.lookahead*1e-12 {
		panic(fmt.Sprintf("core: conservative lookahead violated: delay %g < declared %g",
			float64(delay), float64(c.lookahead)))
	}
	dst := c.peOf(ev.dst)
	ev.state = statePending
	if dst == pe {
		pe.pending.Push(ev)
		return
	}
	dst.inbox[pe.id] = append(dst.inbox[pe.id], ev)
}

func (c *Conservative) fail(err error) {
	c.failOnce.Do(func() {
		c.failErr = err
		c.bar.poison()
	})
}

// Run executes windows until the horizon. It may be called once.
func (c *Conservative) Run() (*Stats, error) {
	err := c.start(func(ev *Event) {
		ev.state = statePending
		c.peOf(ev.dst).pending.Push(ev)
	})
	if err != nil {
		return nil, err
	}
	start := time.Now()
	var wg sync.WaitGroup
	errs := make([]error, len(c.pes))
	for i, pe := range c.pes {
		wg.Add(1)
		go func(i int, pe *consPE) {
			defer wg.Done()
			errs[i] = pe.run()
		}(i, pe)
	}
	wg.Wait()
	wall := time.Since(start)
	if c.failErr != nil {
		return nil, c.failErr
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	workers := make([]PEStats, len(c.pes))
	for i, pe := range c.pes {
		pe.stats.Committed = pe.stats.Processed             //simlint:crosspe post-Run access; wg.Wait orders every worker's counter writes before it
		workers[i] = PEStats{ID: pe.id, Counters: pe.stats} //simlint:crosspe post-Run read; wg.Wait orders every worker's counter writes before it
	}
	st := newStats(wall, len(c.pes), workers)
	st.GVTRounds = c.windows // window rounds play GVT's role
	return st, nil
}

// run is one conservative worker's loop: agree on a window, execute it,
// repeat.
func (pe *consPE) run() (err error) {
	defer func() {
		if r := recover(); r != nil {
			buf := make([]byte, 16<<10)
			buf = buf[:runtime.Stack(buf, false)]
			err = fmt.Errorf("core: conservative PE %d panicked%s: %v\n%s", pe.id, inHandler(pe.sim.lps, pe), r, buf)
			pe.sim.fail(err)
		}
	}()
	c := pe.sim
	// One bound event and one callback serve every window's drain.
	bound := &Event{dst: -1 << 31, src: -1 << 31}
	execute := func(ev *Event) {
		c.lps[ev.dst].executeFinal(ev)
		pe.stats.Processed++
	}
	for {
		// Drain cross-PE events sent during the previous window.
		for s, in := range pe.inbox {
			for _, ev := range in {
				pe.pending.Push(ev)
			}
			pe.inbox[s] = in[:0]
		}

		// Agree on the next window start: the global minimum pending time.
		local := TimeInfinity
		if ev, ok := pe.pending.Min(); ok {
			local = ev.recvTime
		}
		c.windowMins[pe.id] = local
		if err := c.bar.await(); err != nil {
			return err
		}
		if pe.id == 0 {
			min := TimeInfinity
			for _, m := range c.windowMins {
				if m < min {
					min = m
				}
			}
			c.windowEnd = min + c.lookahead
			c.done = min >= c.cfg.EndTime
			if !c.done {
				c.windows++
			}
		}
		if err := c.bar.await(); err != nil {
			return err
		}
		if c.done {
			return nil
		}
		end := c.windowEnd
		if end > c.cfg.EndTime {
			end = c.cfg.EndTime
		}

		// Execute this PE's share of the window; no other PE can produce
		// events inside it, so no synchronisation is needed until the next
		// barrier. The whole window is one bulk drain: the bound sorts
		// before every real event at the window end (real destinations
		// are >= 0), and events sent during execution are strictly later
		// than the event executing (positive delays), so same-window
		// local sends are still delivered in-call — identical semantics
		// to the former Min/Pop loop, minus the per-element rebalancing
		// on the ladder.
		bound.recvTime = end
		pe.pending.BulkDrain(bound, execute)
		if err := c.bar.await(); err != nil {
			return err
		}
	}
}
