// Package pcs implements a Personal Communication Service (cellular
// network) simulation after Carothers, Fujimoto & Lin, "A case study in
// simulating PCS networks using Time Warp" (PADS 1995) — the workload the
// report's simulation methodology descends from (its reference [4], via
// ROSS).
//
// Each logical process is a cell with a fixed number of radio channels.
// Calls arrive at each cell as a Poisson process; an engaged portable
// either completes its call in the cell or hands off mid-call to a
// neighbouring cell, where it needs a fresh channel or the call drops.
// The blocking and dropping probabilities are the model outputs.
package pcs

import (
	"errors"
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/topology"
)

// Config parameterises a PCS run.
type Config struct {
	// N is the side of the N×N cell grid (wrapped into a torus so every
	// cell has four neighbours, as in the GTW/ROSS benchmarks).
	N int
	// Channels is the number of radio channels per cell.
	Channels int
	// MeanInterarrival is the mean time between fresh call arrivals at a
	// cell.
	MeanInterarrival float64
	// MeanCallDuration is the mean total call length.
	MeanCallDuration float64
	// MeanMoveTime is the mean time until an engaged portable crosses a
	// cell boundary.
	MeanMoveTime float64
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
		return errors.New("pcs: N must be at least 2")
	}
	if !(cfg.EndTime > 0) {
		return errors.New("pcs: EndTime must be positive")
	}
	if cfg.Channels <= 0 {
		cfg.Channels = 10
	}
	if cfg.MeanInterarrival <= 0 {
		cfg.MeanInterarrival = 1
	}
	if cfg.MeanCallDuration <= 0 {
		cfg.MeanCallDuration = 3
	}
	if cfg.MeanMoveTime <= 0 {
		cfg.MeanMoveTime = 6
	}
	return nil
}

// Kind discriminates the PCS event types.
type Kind uint8

// The event kinds.
const (
	KindNextArrival Kind = iota // cell-local Poisson arrival tick
	KindCallStart               // a fresh call requests a channel
	KindHandoffIn               // an engaged portable enters the cell
	KindCallEnd                 // an engaged call completes in this cell
	KindHandoffOut              // an engaged portable leaves the cell
)

// Msg is the PCS payload; Remaining carries the call's residual duration
// across handoffs.
type Msg struct {
	Kind      Kind
	Remaining float64
}

// Event bit flags.
const (
	bitEngaged = 0 // CallStart/HandoffIn: a channel was allocated
)

// Cell is the per-LP state.
type Cell struct {
	Busy int

	Arrivals  int64
	Blocked   int64
	Completed int64
	Dropped   int64
	HandIn    int64
	HandOut   int64
}

// Model is the PCS handler.
type Model struct {
	cfg  Config
	net  topology.Torus
	size int
}

// BuildEngine constructs the named engine with the PCS model installed. The
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
		lp.State = &Cell{}
	})
	for i := 0; i < m.size; i++ {
		// Deterministically staggered first arrival ticks.
		h.Schedule(core.LPID(i), core.Time(float64(i+1)*1e-6), &Msg{Kind: KindNextArrival})
	}
}

// Forward implements core.Handler.
func (m *Model) Forward(lp *core.LP, ev *core.Event) {
	msg := ev.Data.(*Msg)
	c := lp.State.(*Cell)
	switch msg.Kind {
	case KindNextArrival:
		// Schedule the fresh call and the next tick; the call itself
		// starts a hair later so its channel decision is a separate,
		// individually reversible event.
		lp.SendSelf(1e-9, &Msg{Kind: KindCallStart, Remaining: lp.RandExp(m.cfg.MeanCallDuration)})
		lp.SendSelf(core.Time(lp.RandExp(m.cfg.MeanInterarrival))+1e-9, &Msg{Kind: KindNextArrival})
	case KindCallStart:
		c.Arrivals++
		if c.Busy >= m.cfg.Channels {
			c.Blocked++
			return
		}
		ev.Bits.Set(bitEngaged)
		c.Busy++
		m.scheduleCallProgress(lp, msg.Remaining)
	case KindHandoffIn:
		c.HandIn++
		if c.Busy >= m.cfg.Channels {
			c.Dropped++
			return
		}
		ev.Bits.Set(bitEngaged)
		c.Busy++
		m.scheduleCallProgress(lp, msg.Remaining)
	case KindCallEnd:
		c.Busy--
		c.Completed++
	case KindHandoffOut:
		c.Busy--
		c.HandOut++
		dir := topology.Direction(lp.RandInt(0, topology.NumDirections-1))
		next := m.net.Neighbor(int(lp.ID), dir)
		lp.Send(core.LPID(next), 1e-9, &Msg{Kind: KindHandoffIn, Remaining: msg.Remaining})
	default:
		panic(fmt.Sprintf("pcs: unknown event kind %d", msg.Kind))
	}
}

// scheduleCallProgress decides whether the engaged call completes here or
// hands off first, and schedules the corresponding event.
func (m *Model) scheduleCallProgress(lp *core.LP, remaining float64) {
	move := lp.RandExp(m.cfg.MeanMoveTime)
	if move < remaining {
		lp.SendSelf(core.Time(move)+1e-9, &Msg{Kind: KindHandoffOut, Remaining: remaining - move})
	} else {
		lp.SendSelf(core.Time(remaining)+1e-9, &Msg{Kind: KindCallEnd})
	}
}

// Reverse implements core.Handler.
func (m *Model) Reverse(lp *core.LP, ev *core.Event) {
	msg := ev.Data.(*Msg)
	c := lp.State.(*Cell)
	switch msg.Kind {
	case KindNextArrival:
		// Sends are cancelled by the kernel; no state was touched.
	case KindCallStart:
		if ev.Bits.Test(bitEngaged) {
			c.Busy--
		} else {
			c.Blocked--
		}
		c.Arrivals--
	case KindHandoffIn:
		if ev.Bits.Test(bitEngaged) {
			c.Busy--
		} else {
			c.Dropped--
		}
		c.HandIn--
	case KindCallEnd:
		c.Busy++
		c.Completed--
	case KindHandoffOut:
		c.Busy++
		c.HandOut--
	}
}

// Totals aggregates the network-wide call statistics.
type Totals struct {
	Cells     int
	Arrivals  int64
	Blocked   int64
	Completed int64
	Dropped   int64
	Handoffs  int64
	Engaged   int64 // calls still in progress at the horizon

	BlockProb float64
	DropProb  float64
}

// Totals folds every cell's counters.
func (m *Model) Totals(h core.Host) Totals {
	var t Totals
	var busy int64
	h.ForEachLP(func(lp *core.LP) {
		c := lp.State.(*Cell)
		t.Cells++
		t.Arrivals += c.Arrivals
		t.Blocked += c.Blocked
		t.Completed += c.Completed
		t.Dropped += c.Dropped
		t.Handoffs += c.HandOut
		busy += int64(c.Busy)
	})
	t.Engaged = busy
	if t.Arrivals > 0 {
		t.BlockProb = float64(t.Blocked) / float64(t.Arrivals)
	}
	if t.Handoffs > 0 {
		t.DropProb = float64(t.Dropped) / float64(t.Handoffs)
	}
	return t
}

// String renders the totals.
func (t Totals) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "pcs: %d cells\n", t.Cells)
	fmt.Fprintf(&b, "  calls arrived:   %d (blocked %d, P_block=%.4f)\n", t.Arrivals, t.Blocked, t.BlockProb)
	fmt.Fprintf(&b, "  calls completed: %d, still engaged %d\n", t.Completed, t.Engaged)
	fmt.Fprintf(&b, "  handoffs:        %d (dropped %d, P_drop=%.4f)\n", t.Handoffs, t.Dropped, t.DropProb)
	return b.String()
}
