// Package hotpotato implements the dynamic hot-potato (deflection) routing
// simulation of the report: an N×N bufferless synchronous network — the
// model of an optical label-switching network — whose routers run the
// Busch–Herlihy–Wattenhofer algorithm (or a baseline policy), with
// continuous packet injection, on top of the optimistic Time Warp kernel
// in internal/core.
//
// # Time structure
//
// The network is synchronous: virtual time advances in unit steps and a
// packet traverses one link per step. Within step s the model lays events
// out at fixed sub-step offsets:
//
//	s + jitter         packet arrivals (jitter ∈ [0, 0.5), fixed per packet)
//	s + 0.5 + b + j/10 routing decisions, b = 0/0.1/0.2/0.3 for
//	                   Running/Excited/Active/Sleeping — higher priority
//	                   packets are routed first, exactly the report's
//	                   staggered ROUTE timestamps
//	s + 0.92           injection attempts (after all in-network routing)
//	s + 0.99           optional heartbeat
//
// The per-packet jitter is the report's §3.2.2 randomisation: it removes
// simultaneous routing decisions at a router, which — combined with the
// kernel's total event order — makes parallel runs deterministic and equal
// to sequential runs.
//
// # Reverse computation
//
// Every handler saves the few words it overwrites into its own message
// struct (the ROSS idiom) and the Reverse handlers restore them; random
// draws and sent events are rewound by the kernel.
package hotpotato

import (
	"errors"
	"fmt"
	"unsafe"

	"repro/internal/core"
	"repro/internal/rng"
	"repro/internal/routing"
	"repro/internal/topology"
	"repro/internal/traffic"
)

// Sub-step offsets of the synchronous schedule.
const (
	routeBase   = 0.5  // routing decisions start here
	prioSpacing = 0.1  // one band per priority state
	jitterScale = 0.1  // jitter contribution inside a band: [0, 0.05)
	injectAt    = 0.92 // injection attempts
	heartbeatAt = 0.99 // optional heartbeat
	maxJitter   = 0.5  // packet jitter range [0, maxJitter)
)

// Config parameterises one hot-potato simulation, mirroring the report's
// input parameters (§3.3.1).
type Config struct {
	// N is the network side length (the report's first parameter).
	N int
	// Topology selects "torus" (default, the simulated topology) or
	// "mesh" (the topology of the theoretical analysis).
	Topology string
	// Policy is the routing policy; defaults to the paper's algorithm.
	Policy routing.Policy
	// Traffic selects the destination pattern for injected packets and
	// the initial fill; defaults to the report's uniform random traffic.
	// Packets a deterministic pattern addresses to their own source
	// (e.g. the transpose diagonal) are discarded at injection and
	// counted in Totals.Discarded.
	Traffic traffic.Pattern
	// InjectorPercent is the report's probability_i: the percentage
	// (0–100) of routers that run a packet-injection application. Each
	// router is an injector independently with this probability. 0 gives
	// the static ("one-shot") analysis.
	InjectorPercent float64
	// InjectionProb is the probability that an injector generates a new
	// packet in a given step. 1 (the default; a zero value is treated as
	// 1) is the report's saturating one-packet-per-step application;
	// lower values model the "lower speed users" the dynamic analysis
	// accommodates (§1.2.2–1.2.3 of the report).
	InjectionProb float64
	// AbsorbSleeping is the report's absorb_sleeping_packet flag: when
	// true (the practical mode, the default via DefaultConfig) routers
	// absorb any packet that reaches its destination; when false Sleeping
	// packets pass through their destination, matching the assumptions of
	// the theoretical model in the SPAA 2001 paper.
	AbsorbSleeping bool
	// InitialFill is the number of packets each router holds at time
	// zero; the report initialises the network full at four per router.
	InitialFill int
	// Steps is the simulated duration in time steps (SIMULATION_DURATION).
	Steps int
	// Heartbeat schedules the optional per-step administrative event at
	// every router; the report disables it when other events subsume the
	// work, and so does DefaultConfig. It exists for the event-overhead
	// ablation.
	Heartbeat bool
	// Seed selects the random universe.
	Seed uint64

	// Kernel passthrough (see core.Config). Zero values take the kernel
	// defaults; NumPEs=1 with the Sequential build gives the report's
	// sequential mode.
	NumPEs      int
	NumKPs      int
	BatchSize   int
	GVTInterval int
	MaxOptimism core.Time
	// PEOfKP optionally overrides the kernel's locality-preserving KP→PE
	// placement (see core.Config). The comms benchmarks use a striped
	// PEOfKP so nearly every packet hop crosses a PE boundary — the
	// adversarial placement for the mailbox layer.
	PEOfKP func(kp int) int
}

// DefaultConfig returns the report's standard configuration for an N×N
// torus: network initialised full, absorbing destinations, 100 steps.
func DefaultConfig(n int) Config {
	return Config{
		N:               n,
		Topology:        "torus",
		Policy:          routing.NewBusch(),
		InjectorPercent: 100,
		InjectionProb:   1,
		AbsorbSleeping:  true,
		InitialFill:     4,
		Steps:           100,
	}
}

func (cfg *Config) validate() error {
	if cfg.N < 2 {
		return errors.New("hotpotato: N must be at least 2")
	}
	if cfg.InjectorPercent < 0 || cfg.InjectorPercent > 100 {
		return errors.New("hotpotato: InjectorPercent must be in [0, 100]")
	}
	if cfg.InjectionProb == 0 {
		cfg.InjectionProb = 1
	}
	if cfg.InjectionProb < 0 || cfg.InjectionProb > 1 {
		return errors.New("hotpotato: InjectionProb must be in (0, 1]")
	}
	if cfg.InitialFill < 0 || cfg.InitialFill > 4 {
		return errors.New("hotpotato: InitialFill must be in [0, 4] (a router has 4 links)")
	}
	if cfg.Steps <= 0 {
		return errors.New("hotpotato: Steps must be positive")
	}
	if cfg.Policy == nil {
		cfg.Policy = routing.NewBusch()
	}
	if cfg.Traffic == nil {
		cfg.Traffic = traffic.Uniform{}
	}
	switch cfg.Topology {
	case "", "torus", "mesh":
	default:
		return fmt.Errorf("hotpotato: unknown topology %q", cfg.Topology)
	}
	return nil
}

func (cfg *Config) network() topology.Network {
	if cfg.Topology == "mesh" {
		return topology.NewMesh(cfg.N)
	}
	return topology.NewTorus(cfg.N)
}

// Model binds a configuration to its network geometry and policy; it is
// the shared handler for every router LP.
type Model struct {
	cfg     Config
	net     topology.Network
	size    int
	maxDist int

	// scratch holds one routing context per LP, indexed by LP ID, so ROUTE
	// and INJECT build nothing on the heap: a Ctx handed to Policy.Route
	// escapes through the interface call, and lp.Rand / lp.RandInt written
	// as method values allocate a closure each time they are evaluated.
	// install binds the two random sources once; route rewrites the packet
	// fields before every decision. It lives here and not in Router because
	// Router is rendered by trace.StateHash and replaced wholesale by the
	// state codec. An entry is touched only while its LP handles an event,
	// that is by the PE owning the LP.
	scratch []lpScratch //simlint:owned
}

// lpScratch pads a routing context to a cache line of its own: under a
// striped placement adjacent LPs belong to different PEs, and each writes
// its entry on every ROUTE.
type lpScratch struct {
	ctx routing.Ctx
	_   [cacheLine - unsafe.Sizeof(routing.Ctx{})%cacheLine]byte
}

const cacheLine = 64

// newMsg returns a message initialised to v for lp to send, taking over
// the payload of an event that died on lp's PE when the kernel holds one
// (core.LP.Spare). Msg holds no pointers, so reuse also relieves the
// garbage collector of scanning dead payloads.
func newMsg(lp *core.LP, v Msg) *Msg {
	nm, ok := lp.Spare().(*Msg)
	if !ok {
		nm = new(Msg)
	}
	*nm = v
	return nm
}

// Lookahead is the model's minimum send delay in steps: an arrival with
// the maximum jitter (just under 0.5) routes at least 0.05 steps later;
// every other edge of the sub-step schedule has more slack. It is what a
// conservative executor may exploit.
const Lookahead = core.Time(0.05)

// BuildEngine constructs the named engine with the model installed and the
// initial events scheduled. Run the returned engine, then read results
// with model.Totals. Every engine gets the same kernel Config; each
// consults only the fields it needs.
func BuildEngine(kind core.EngineKind, cfg Config) (core.Engine, *Model, error) {
	if err := cfg.validate(); err != nil {
		return nil, nil, err
	}
	net := cfg.network()
	eng, err := core.NewEngine(kind, core.Config{
		NumLPs:      net.Size(),
		NumPEs:      cfg.NumPEs,
		NumKPs:      cfg.NumKPs,
		EndTime:     core.Time(cfg.Steps),
		BatchSize:   cfg.BatchSize,
		GVTInterval: cfg.GVTInterval,
		Seed:        cfg.Seed,
		MaxOptimism: cfg.MaxOptimism,
		PEOfKP:      cfg.PEOfKP,
	}, Lookahead)
	if err != nil {
		return nil, nil, err
	}
	m := newModel(cfg, net)
	m.install(eng)
	return eng, m, nil
}

// Build constructs the optimistic parallel simulator (BuildEngine's
// KindOptimistic, typed).
func Build(cfg Config) (*core.Simulator, *Model, error) {
	eng, m, err := BuildEngine(core.KindOptimistic, cfg)
	if err != nil {
		return nil, nil, err
	}
	return eng.(*core.Simulator), m, nil
}

// BuildSequential constructs the sequential reference simulation with an
// identical model and identical initial events (BuildEngine's
// KindSequential, typed).
func BuildSequential(cfg Config) (*core.Sequential, *Model, error) {
	eng, m, err := BuildEngine(core.KindSequential, cfg)
	if err != nil {
		return nil, nil, err
	}
	return eng.(*core.Sequential), m, nil
}

func newModel(cfg Config, net topology.Network) *Model {
	m := &Model{cfg: cfg, net: net, size: net.Size()}
	// Network diameter: node 0 is a corner on the mesh and an arbitrary
	// node on the (vertex-transitive) torus, so its eccentricity is the
	// diameter in both cases.
	for j := 1; j < m.size; j++ {
		if d := net.Dist(0, j); d > m.maxDist {
			m.maxDist = d
		}
	}
	return m
}

// MaxDist returns the network diameter (the maximum node distance).
func (m *Model) MaxDist() int { return m.maxDist }

// Config returns the configuration the model was built with.
func (m *Model) Config() Config { return m.cfg }

// Network returns the model's topology.
func (m *Model) Network() topology.Network { return m.net }

// install attaches router state and handlers to every LP and schedules the
// bootstrap events: the initial network fill, the first injection attempt
// at each injector, and optional heartbeats. All setup randomness comes
// from a dedicated stream so both engines schedule identical bootstraps.
func (m *Model) install(h core.Host) {
	setup := rng.NewStream(m.cfg.Seed ^ 0xD1B54A32D192ED03)
	injectorThreshold := m.cfg.InjectorPercent / 100
	m.scratch = make([]lpScratch, m.size)
	h.ForEachLP(func(lp *core.LP) {
		r := &Router{links: m.net.Links(int(lp.ID))}
		for d := range r.claim {
			r.claim[d] = -1
		}
		r.isInjector = injectorThreshold > 0 && setup.Uniform() < injectorThreshold
		lp.Handler = m
		lp.State = r
		m.scratch[lp.ID].ctx = routing.Ctx{N: m.cfg.N, Rand: lp.Rand, RandInt: lp.RandInt}
	})

	for id := 0; id < m.size; id++ {
		// A router can route at most one packet per link per step, so the
		// initial fill is clamped to the node degree (relevant at mesh
		// boundaries; a no-op on the torus).
		fill := m.cfg.InitialFill
		if deg := m.net.Links(id).Count(); fill > deg {
			fill = deg
		}
		for p := 0; p < fill; p++ {
			dst := core.LPID(m.cfg.Traffic.Dest(m.net, id, setup.Integer))
			if int(dst) == id {
				continue // deterministic pattern addressing itself
			}
			jitter := setup.Uniform() * maxJitter
			arrival := core.Time(jitter)
			pkt := Packet{
				Dst:    dst,
				Src:    core.LPID(id),
				Prio:   routing.Sleeping,
				Jitter: jitter,
				Born:   arrival,
				Dist:   int32(m.net.Dist(id, int(dst))),
			}
			h.Schedule(core.LPID(id), arrival, &Msg{Kind: KindArrive, P: pkt})
		}
	}
	h.ForEachLP(func(lp *core.LP) {
		if lp.State.(*Router).isInjector {
			h.Schedule(lp.ID, injectAt, &Msg{Kind: KindInject})
		}
		if m.cfg.Heartbeat {
			h.Schedule(lp.ID, heartbeatAt, &Msg{Kind: KindHeartbeat})
		}
	})
}
