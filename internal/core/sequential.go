package core

import (
	"time"

	"repro/internal/eventq"
	"repro/internal/rng"
)

// Sequential is an independent, non-optimistic executor for the same model
// API: one event queue, strict order, no rollbacks. It exists for two
// reasons. First, it is the reference the parallel kernel is validated
// against — the report's correctness argument is that the parallel and
// sequential simulations produce identical output (Attachment 3), and the
// test suite asserts exactly that. Second, it is the 1-processor baseline
// of the speed-up experiments (Figures 5 and 6).
type Sequential struct {
	lpTable
	cfg     Config
	pending *eventq.Ladder[*Event]
	pool    eventPool

	processed int64
}

// NewSequential builds a sequential executor. It validates cfg exactly as
// the parallel engines do, but only NumLPs, EndTime and Seed shape
// the run; the placement fields are irrelevant without parallelism.
func NewSequential(cfg Config) (*Sequential, error) {
	if err := cfg.setDefaults(); err != nil {
		return nil, err
	}
	q := &Sequential{cfg: cfg}
	q.lps = make([]*LP, cfg.NumLPs)
	for i := range q.lps {
		q.lps[i] = &LP{
			ID:   LPID(i),
			rng:  rng.NewStream(streamID(cfg.Seed, i)),
			eng:  q,
			pool: &q.pool,
		}
	}
	q.pending = newEventQueue()
	return q, nil
}

// scheduleNew implements engine: new events, bootstrap events included,
// go straight into the queue.
func (q *Sequential) scheduleNew(ev *Event) {
	ev.state = statePending
	q.pending.Push(ev)
}

// Run executes events in order until the queue drains or the end time is
// reached. Commit callbacks fire immediately after each Forward — in the
// sequential world every event is final the moment it executes.
func (q *Sequential) Run() (*Stats, error) {
	if err := q.start(q.scheduleNew); err != nil {
		return nil, err
	}
	start := time.Now()
	// One bulk drain to the horizon replaces the Min/Pop loop: the bound
	// sorts before every real event at EndTime (real destinations are
	// >= 0), so exactly the events with recvTime < EndTime execute, and
	// the ladder consumes its sorted runs directly. Events sent during
	// execution land strictly later than the event being executed
	// (LP.Send requires a positive delay), which is precisely the
	// BulkDrain re-entrancy contract.
	bound := &Event{recvTime: q.cfg.EndTime, dst: -1 << 31, src: -1 << 31}
	q.pending.BulkDrain(bound, func(ev *Event) {
		q.lps[ev.dst].executeFinal(ev)
		q.processed++
	})
	wall := time.Since(start)
	st := &Stats{
		Processed: q.processed,
		Committed: q.processed,
		NumPEs:    1,
		NumKPs:    1,
		Wall:      wall,
	}
	var ps PEStats
	q.pool.addTo(&ps)
	st.addPool(ps)
	st.finishPools()
	if secs := wall.Seconds(); secs > 0 {
		st.EventRate = float64(st.Committed) / secs
	}
	st.Efficiency = 1
	return st, nil
}
