package core

import (
	"errors"
	"fmt"
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
	cfg     Config
	lps     []*LP
	pending eventq.Queue[*Event]
	pool    eventPool
	boot    []*Event
	bootSeq uint64
	ran     bool

	processed int64
}

// NewSequential builds a sequential executor. Only NumLPs, EndTime, Seed
// and Queue are consulted; the placement fields are irrelevant without
// parallelism.
func NewSequential(cfg Config) (*Sequential, error) {
	if cfg.NumLPs <= 0 {
		return nil, errors.New("core: Config.NumLPs must be positive")
	}
	if !(cfg.EndTime > 0) {
		return nil, errors.New("core: Config.EndTime must be positive")
	}
	if cfg.Queue == "" {
		cfg.Queue = eventq.DefaultKind
	}
	if err := eventq.Valid(cfg.Queue); err != nil {
		return nil, fmt.Errorf("core: %w", err)
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
	q.pending = newEventQueue(cfg.Queue)
	return q, nil
}

// NumLPs returns the number of logical processes.
func (q *Sequential) NumLPs() int { return len(q.lps) }

// LP returns the logical process with the given ID.
func (q *Sequential) LP(id LPID) *LP { return q.lps[id] }

// ForEachLP applies fn to every LP in ID order.
func (q *Sequential) ForEachLP(fn func(lp *LP)) {
	for _, lp := range q.lps {
		fn(lp)
	}
}

// Schedule enqueues a bootstrap event; same semantics as Simulator.Schedule.
func (q *Sequential) Schedule(dst LPID, t Time, data any) {
	if q.ran {
		panic("core: Schedule after Run")
	}
	if t < 0 {
		panic("core: Schedule with negative time")
	}
	if dst < 0 || int(dst) >= len(q.lps) {
		panic("core: Schedule to unknown LP")
	}
	q.boot = append(q.boot, q.pool.boot(dst, t, NoLP, q.bootSeq, data))
	q.bootSeq++
}

// ForEachBootstrap visits every bootstrap event scheduled so far, in
// schedule order; same semantics as Simulator.ForEachBootstrap.
func (q *Sequential) ForEachBootstrap(fn func(dst LPID, t Time, data any)) {
	for _, ev := range q.boot {
		fn(ev.dst, ev.recvTime, ev.Data)
	}
}

// DropBootstrap discards the bootstrap events scheduled so far; same
// semantics as Simulator.DropBootstrap.
func (q *Sequential) DropBootstrap() {
	if q.ran {
		panic("core: DropBootstrap after Run")
	}
	for _, ev := range q.boot {
		ev.Data = nil // the slab outlives the drop; do not let it pin payloads
	}
	q.boot = nil
	q.bootSeq = 0
}

// scheduleNew implements engine: new events go straight into the queue.
func (q *Sequential) scheduleNew(ev *Event) {
	ev.state = statePending
	q.pending.Push(ev)
}

// lookup implements engine.
func (q *Sequential) lookup(id LPID) *LP {
	if id < 0 || int(id) >= len(q.lps) {
		return nil
	}
	return q.lps[id]
}

// Run executes events in order until the queue drains or the end time is
// reached. Commit callbacks fire immediately after each Forward — in the
// sequential world every event is final the moment it executes.
func (q *Sequential) Run() (*Stats, error) {
	if q.ran {
		return nil, errors.New("core: Run called twice")
	}
	q.ran = true
	if err := bindHandlers(q.lps); err != nil {
		return nil, err
	}
	for _, ev := range q.boot {
		ev.state = statePending
		q.pending.Push(ev)
	}
	q.boot = nil
	start := time.Now()
	// One bulk drain to the horizon replaces the Min/Pop loop: the bound
	// sorts before every real event at EndTime (real destinations are
	// >= 0), so exactly the events with recvTime < EndTime execute. The
	// ladder consumes its sorted runs directly; heap and splay take
	// eventq.Drain's equivalent Min/Pop fallback. Events sent during
	// execution land strictly later than the event being executed
	// (LP.Send requires a positive delay), which is precisely the
	// BulkDrain re-entrancy contract.
	bound := &Event{recvTime: q.cfg.EndTime, dst: -1 << 31, src: -1 << 31}
	eventq.Drain(q.pending, bound, (*Event).before, func(ev *Event) {
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
