// Package qnet implements a closed queueing network — the third classic
// Time Warp workload alongside PHOLD and PCS (queueing networks were the
// original Time Warp benchmarks in Jefferson's and Fujimoto's studies).
//
// A fixed population of jobs circulates among FIFO single-server stations
// arranged on a torus: a job arriving at a station queues, receives an
// exponential service, and departs to a uniformly random neighbour.
// Unlike PHOLD, stations carry real queue state (length, busy flag,
// cumulative waiting), so the model exercises reverse computation of
// nontrivial data structures; unlike hot-potato routing, there is no
// admission control, so queues grow and shrink freely.
//
// The model reports per-station throughput and mean queueing delay, and
// its closed-population invariant (jobs are never created or destroyed)
// is a natural conservation test for the kernel.
package qnet

import (
	"errors"
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/topology"
)

// Config parameterises a closed queueing network run.
type Config struct {
	// N is the side of the N×N station torus.
	N int
	// JobsPerStation is the initial population at each station.
	JobsPerStation int
	// MeanService is the mean exponential service time.
	MeanService float64
	// EndTime is the virtual-time horizon.
	EndTime core.Time
	// Seed selects the random universe.
	Seed uint64

	// Kernel passthrough.
	NumPEs      int
	NumKPs      int
	BatchSize   int
	GVTInterval int
	MaxOptimism core.Time
}

func (cfg *Config) defaults() error {
	if cfg.N < 2 {
		return errors.New("qnet: N must be at least 2")
	}
	if !(cfg.EndTime > 0) {
		return errors.New("qnet: EndTime must be positive")
	}
	if cfg.JobsPerStation <= 0 {
		cfg.JobsPerStation = 2
	}
	if cfg.MeanService <= 0 {
		cfg.MeanService = 1
	}
	return nil
}

// Kind discriminates the event types.
type Kind uint8

// The event kinds: a job arrives and queues; the job at the head of the
// queue finishes service and departs.
const (
	KindArrive Kind = iota
	KindDepart
)

// Msg is the payload; the Saved fields support reverse computation.
type Msg struct {
	Kind Kind
	// EnqueuedAt is carried on Depart events: the time the departing job
	// joined the queue (for waiting-time statistics).
	EnqueuedAt core.Time
}

// Event bit flags.
const (
	bitStartedService = 0 // Arrive: the server was idle and service began
)

// Station is the per-LP state. The FIFO of enqueue times is an append/
// truncate structure with an absolute head index, trimmed at commit —
// the same reversible-queue idiom the hot-potato injectors use.
type Station struct {
	Busy  bool
	queue []core.Time // enqueue time of each waiting job
	qBase int64
	qHead int64

	Arrivals int64
	Departs  int64
	// WaitTicks accumulates sojourn times in fixed-point ticks (tickScale
	// per time unit). Integer accumulation is the reversal-exact idiom:
	// float64 += / -= is not associative and would drift under rollback.
	WaitTicks int64
}

// tickScale is the fixed-point resolution of sojourn-time accounting.
const tickScale = 1 << 20

func toTicks(d core.Time) int64 { return int64(float64(d) * tickScale) }

// QueueLen returns the number of jobs waiting (excluding the one in
// service).
func (s *Station) QueueLen() int64 { return s.qBase + int64(len(s.queue)) - s.qHead }

// Model is the queueing-network handler.
type Model struct {
	cfg  Config
	net  topology.Torus
	size int
}

// newMsg returns a message initialised to v for lp to send, taking over
// the payload of an event that died on lp's PE when the kernel holds one.
func newMsg(lp *core.LP, v Msg) *Msg {
	nm, ok := lp.Spare().(*Msg)
	if !ok {
		nm = new(Msg)
	}
	*nm = v
	return nm
}

// BuildEngine constructs the named engine with the model installed. The
// model forwards messages 1e-9 after receipt, so it declares no lookahead
// and the conservative engine refuses it.
func BuildEngine(kind core.EngineKind, cfg Config) (core.Engine, *Model, error) {
	if err := cfg.defaults(); err != nil {
		return nil, nil, err
	}
	net := topology.NewTorus(cfg.N)
	eng, err := core.NewEngine(kind, core.Config{
		NumLPs:      net.Size(),
		NumPEs:      cfg.NumPEs,
		NumKPs:      cfg.NumKPs,
		EndTime:     cfg.EndTime,
		BatchSize:   cfg.BatchSize,
		GVTInterval: cfg.GVTInterval,
		Seed:        cfg.Seed,
		MaxOptimism: cfg.MaxOptimism,
	}, 0)
	if err != nil {
		return nil, nil, err
	}
	m := &Model{cfg: cfg, net: net, size: net.Size()}
	m.install(eng)
	return eng, m, nil
}

func (m *Model) install(h core.Host) {
	h.ForEachLP(func(lp *core.LP) {
		lp.Handler = m
		lp.State = &Station{}
	})
	for i := 0; i < m.size; i++ {
		for j := 0; j < m.cfg.JobsPerStation; j++ {
			t := core.Time(float64(j*m.size+i+1) * 1e-6)
			h.Schedule(core.LPID(i), t, &Msg{Kind: KindArrive})
		}
	}
}

// Forward implements core.Handler.
func (m *Model) Forward(lp *core.LP, ev *core.Event) {
	st := lp.State.(*Station)
	msg := ev.Data.(*Msg)
	switch msg.Kind {
	case KindArrive:
		st.Arrivals++
		if !st.Busy {
			// Idle server: begin service immediately.
			ev.Bits.Set(bitStartedService)
			st.Busy = true
			lp.SendSelf(core.Time(lp.RandExp(m.cfg.MeanService))+1e-9,
				newMsg(lp, Msg{Kind: KindDepart, EnqueuedAt: ev.RecvTime()}))
			return
		}
		st.queue = append(st.queue, ev.RecvTime())
	case KindDepart:
		st.Departs++
		st.WaitTicks += toTicks(ev.RecvTime() - msg.EnqueuedAt)
		// Forward the job to a random neighbour.
		dir := topology.Direction(lp.RandInt(0, topology.NumDirections-1))
		next := m.net.Neighbor(int(lp.ID), dir)
		lp.Send(core.LPID(next), 1e-9, newMsg(lp, Msg{Kind: KindArrive}))
		// Start the next waiting job, if any.
		if st.qHead < st.qBase+int64(len(st.queue)) {
			ev.Bits.Set(bitStartedService)
			enq := st.queue[st.qHead-st.qBase]
			st.qHead++
			lp.SendSelf(core.Time(lp.RandExp(m.cfg.MeanService))+1e-9,
				newMsg(lp, Msg{Kind: KindDepart, EnqueuedAt: enq}))
			return
		}
		st.Busy = false
	default:
		panic(fmt.Sprintf("qnet: unknown event kind %d", msg.Kind))
	}
}

// Reverse implements core.Handler.
func (m *Model) Reverse(lp *core.LP, ev *core.Event) {
	st := lp.State.(*Station)
	msg := ev.Data.(*Msg)
	switch msg.Kind {
	case KindArrive:
		if ev.Bits.Test(bitStartedService) {
			st.Busy = false
		} else {
			st.queue = st.queue[:len(st.queue)-1]
		}
		st.Arrivals--
	case KindDepart:
		if ev.Bits.Test(bitStartedService) {
			st.qHead--
		} else {
			st.Busy = true
		}
		st.WaitTicks -= toTicks(ev.RecvTime() - msg.EnqueuedAt)
		st.Departs--
	}
}

// Commit implements core.Committer: trim the committed prefix of the FIFO.
func (m *Model) Commit(lp *core.LP, ev *core.Event) {
	st := lp.State.(*Station)
	if drop := st.qHead - st.qBase; drop > 256 {
		st.queue = append([]core.Time(nil), st.queue[drop:]...)
		st.qBase = st.qHead
	}
}

// Totals aggregates the network-wide queueing statistics.
type Totals struct {
	Stations   int
	Population int64 // jobs currently in the network (must equal the initial population)
	Arrivals   int64
	Departs    int64
	AvgWait    float64 // mean sojourn (queueing + service) time per completed service
	Throughput float64 // departures per station per unit time
}

// Totals folds every station's counters. horizon is the run's EndTime,
// needed for throughput.
func (m *Model) Totals(h core.Host, horizon core.Time) Totals {
	var t Totals
	var waitTicks int64
	h.ForEachLP(func(lp *core.LP) {
		st := lp.State.(*Station)
		t.Stations++
		t.Arrivals += st.Arrivals
		t.Departs += st.Departs
		waitTicks += st.WaitTicks
		// Jobs present: one in service plus the waiting queue.
		if st.Busy {
			t.Population++
		}
		t.Population += st.QueueLen()
	})
	if t.Departs > 0 {
		t.AvgWait = float64(waitTicks) / tickScale / float64(t.Departs)
	}
	if t.Stations > 0 && horizon > 0 {
		t.Throughput = float64(t.Departs) / float64(t.Stations) / float64(horizon)
	}
	return t
}

// String renders the totals.
func (t Totals) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "qnet: %d stations, population %d\n", t.Stations, t.Population)
	fmt.Fprintf(&b, "  services completed: %d (arrivals %d)\n", t.Departs, t.Arrivals)
	fmt.Fprintf(&b, "  avg sojourn:        %.3f\n", t.AvgWait)
	fmt.Fprintf(&b, "  throughput:         %.4f jobs/station/time\n", t.Throughput)
	return b.String()
}
