package core

import (
	"errors"
	"fmt"
)

// Host is the setup interface every engine offers; models install
// themselves against it so one setup function serves all three (which is
// what makes the sequential-vs-parallel equality tests possible).
type Host interface {
	NumLPs() int
	LP(LPID) *LP
	ForEachLP(func(*LP))
	Schedule(dst LPID, t Time, data any)
}

// Engine is a built executor: the Host a model installs itself on, the
// bootstrap list the replay subsystem harvests and replaces, and Run.
// Simulator, Sequential and Conservative all implement it.
type Engine interface {
	Host
	ForEachBootstrap(fn func(dst LPID, t Time, data any))
	DropBootstrap()
	Run() (*Stats, error)
}

// EngineKind names one of the three executors.
type EngineKind string

// The engines NewEngine can build.
const (
	KindSequential   EngineKind = "sequential"
	KindConservative EngineKind = "conservative"
	KindOptimistic   EngineKind = "optimistic"
)

// EngineKinds lists every engine kind in reference-first order.
func EngineKinds() []EngineKind {
	return []EngineKind{KindSequential, KindConservative, KindOptimistic}
}

// NewEngine builds the named engine. lookahead is consulted only by the
// conservative engine, which rejects one that is not positive.
func NewEngine(kind EngineKind, cfg Config, lookahead Time) (Engine, error) {
	var (
		e   Engine
		err error
	)
	switch kind {
	case KindSequential:
		e, err = NewSequential(cfg)
	case KindConservative:
		e, err = NewConservative(cfg, lookahead)
	case KindOptimistic:
		e, err = New(cfg)
	default:
		return nil, fmt.Errorf("core: unknown engine %q (have %v)", kind, EngineKinds())
	}
	if err != nil {
		return nil, err
	}
	return e, nil
}

// lpTable is the part every engine shares: the LP table, the placement
// table, the bootstrap events scheduled before Run, and the latch that makes
// setup illegal once Run has started. It implements Host, the bootstrap pair
// and the Run prologue once for all three engines.
type lpTable struct {
	lps []*LP
	// place is where each LP runs, by ID. It is built once from the mapping
	// Config.resolve settled and never written after, so every per-event
	// lookup of a destination's KP or PE reads it rather than the LP or KP
	// record that the owning PE writes at every event.
	place   []lpPlace
	boot    []*Event
	bootSeq uint64
	ran     bool
}

// lpPlace is one LP's placement: the indices of its kernel process and of
// the processing element that owns that KP.
type lpPlace struct{ kp, pe int32 }

// build makes the LP records for a run under seed placed by place.
// host(pe) names the executor and event pool of PE pe. LP 0's stream is
// seeded by ID and each later LP's from its predecessor's, one
// multiplication per component instead of a modular power per LP.
func (t *lpTable) build(seed uint64, place []lpPlace, cancels bool, host func(pe int32) (engine, *eventPool)) {
	t.place = place
	t.lps = make([]*LP, len(place))
	for i, p := range place {
		eng, pool := host(p.pe)
		lp := &LP{ID: LPID(i), cancels: cancels, numLPs: int32(len(place)), eng: eng, pool: pool}
		// streamID only wraps to 0 at the top of the ID space, where the
		// successor of stream 2^64-1 is not stream 0.
		if id := streamID(seed, i); i == 0 || id == 0 {
			lp.rng.SeedStream(id)
		} else {
			lp.rng.SeedNext(&t.lps[i-1].rng)
		}
		t.lps[i] = lp
	}
}

// has reports whether id names an LP of the table.
func (t *lpTable) has(id LPID) bool { return uint(id) < uint(len(t.lps)) }

// NumLPs returns the number of logical processes.
func (t *lpTable) NumLPs() int { return len(t.lps) }

// LP returns the logical process with the given ID.
func (t *lpTable) LP(id LPID) *LP { return t.lps[id] }

// ForEachLP applies fn to every LP in ID order; the idiomatic place to
// install handlers and initial state.
func (t *lpTable) ForEachLP(fn func(lp *LP)) {
	for _, lp := range t.lps {
		fn(lp)
	}
}

// Schedule enqueues a bootstrap event before the run starts. Bootstrap
// events have source NoLP and a global sequence, so their order is as
// deterministic as every other event's.
func (t *lpTable) Schedule(dst LPID, at Time, data any) {
	t.enqueue("Schedule", dst, at, NoLP, t.bootSeq, data)
	t.bootSeq++
}

// enqueue validates and appends one bootstrap event, drawn from the pool
// of the engine that will execute dst.
func (t *lpTable) enqueue(op string, dst LPID, at Time, src LPID, seq uint64, data any) {
	if t.ran {
		panic("core: " + op + " after Run")
	}
	if !(at >= 0) {
		panic("core: " + op + " with negative or NaN time")
	}
	if !t.has(dst) {
		panic("core: " + op + " to unknown LP")
	}
	t.boot = append(t.boot, t.lps[dst].pool.boot(dst, at, src, seq, data))
}

// ForEachBootstrap visits every bootstrap event scheduled so far, in
// schedule (sequence) order. The replay subsystem uses it to harvest a
// model's injections; data is the payload passed to Schedule and must not
// be mutated.
func (t *lpTable) ForEachBootstrap(fn func(dst LPID, at Time, data any)) {
	for _, ev := range t.boot {
		fn(ev.dst, ev.recvTime, ev.Data)
	}
}

// DropBootstrap discards every bootstrap event scheduled so far and resets
// the bootstrap sequence, so a recorded injection list can be re-scheduled
// in its place (internal/replay). Only legal before Run.
func (t *lpTable) DropBootstrap() {
	if t.ran {
		panic("core: DropBootstrap after Run")
	}
	for _, ev := range t.boot {
		ev.Data = nil // the slab outlives the drop; do not let it pin payloads
	}
	t.boot = nil
	t.bootSeq = 0
}

// start is every engine's Run prologue: it latches ran, binds the
// handlers and hands each bootstrap event to insert.
func (t *lpTable) start(insert func(ev *Event)) error {
	if t.ran {
		return errors.New("core: Run called twice")
	}
	t.ran = true
	if err := bindHandlers(t.lps); err != nil {
		return err
	}
	for _, ev := range t.boot {
		insert(ev)
	}
	t.boot = nil
	return nil
}
