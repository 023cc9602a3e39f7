package hotpotato

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/routing"
	"repro/internal/topology"
)

// Kind discriminates the model's event types, mirroring the report's
// ARRIVE / ROUTE / PACKET_INJECTION_APPLICATION / HEARTBEAT.
type Kind uint8

// The event kinds.
const (
	KindArrive Kind = iota
	KindRoute
	KindInject
	KindHeartbeat
)

// String returns the event-kind name.
func (k Kind) String() string {
	switch k {
	case KindArrive:
		return "ARRIVE"
	case KindRoute:
		return "ROUTE"
	case KindInject:
		return "INJECT"
	case KindHeartbeat:
		return "HEARTBEAT"
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// Packet is the optical label of a packet in flight: destination and
// priority (the algorithm's routing information) plus provenance carried
// for statistics. A fresh copy travels in each hop's message, so packet
// fields never need reverse handling.
type Packet struct {
	// Dst is the destination router.
	Dst core.LPID
	// Src is the router that injected the packet.
	Src core.LPID
	// Prio is the packet's priority state.
	Prio routing.State
	// Jitter is the per-packet arrival offset in [0, 0.5), drawn at
	// creation and carried for the packet's lifetime (report §3.2.2).
	Jitter float64
	// Born is the virtual time the packet first entered the network (its
	// first arrival), the basis for delivery-time statistics.
	Born core.Time
	// CreatedStep is the step the injection application generated the
	// packet; Born−CreatedStep−1 is its injection wait.
	CreatedStep int64
	// Dist is the source-destination distance at injection.
	Dist int32
	// Hops counts link traversals so far.
	Hops int32
}

// Msg is the model's message payload. SavedDir and SavedClaim are the
// reverse-computation save area: a routing or injection decision records
// the link claim it overwrites and Reverse restores it. Statistics need no
// save slot: Commit counts them, once, from the Bits flags Forward set.
type Msg struct {
	Kind Kind
	P    Packet

	SavedDir   topology.Direction
	SavedClaim int64
}

// Event bit-flag indices (the tw_bf analogue). Each counted outcome sets
// one flag, so Commit tells outcomes apart without reading the payload and
// returns at once on a forwarded arrival, the one event that sets none.
const (
	bitDelivered  = 0 // Arrive: packet was absorbed here
	bitInjected   = 1 // Inject: a packet entered the network
	bitRouted     = 2 // Route: a link was claimed for the packet
	bitDeflected  = 3 // Route: the packet was deflected
	bitUpgraded   = 4 // Route: priority increased
	bitDowngraded = 5 // Route: priority decreased
	bitGenerated  = 6 // Inject: a new packet was generated this step
	bitHeartbeat  = 7 // Heartbeat: the router ticked
	bitDiscarded  = 8 // Inject: a self-addressed packet was dropped
)

// DistBuckets is the resolution of the per-distance delivery profile: each
// router accumulates delivery times into DistBuckets bins spanning
// [0, diameter], so the expected-delivery-vs-distance curve — the SPAA
// 2001 theorem this simulation tests — can be plotted without per-packet
// logs.
const DistBuckets = 32

// TimeBuckets is the resolution of the delivery time series: deliveries
// are also binned by *when* they completed, spanning [0, Steps), which
// exposes the warm-up transient and the steady state behind the
// aggregate Figure 3 numbers.
const TimeBuckets = 32

// Router is the per-LP state: the link claims of the current step, the
// injection application's queue, and the committed statistics.
type Router struct {
	// claim[d] is the last step in which output link d was claimed; a
	// link is free in step s while claim[d] != s.
	claim [topology.NumDirections]int64
	// links caches the existing directions (all four on the torus; fewer
	// at mesh boundaries).
	links topology.DirSet

	isInjector bool
	// queue holds the generation step of every packet the injection
	// application has created; entries before qHead have been injected.
	// qBase is the absolute index of queue[0] (committed entries are
	// trimmed).
	queue []int64
	qBase int64
	qHead int64

	stats RouterStats
}

// QueueLen returns the number of packets waiting to be injected.
func (r *Router) QueueLen() int64 { return r.qBase + int64(len(r.queue)) - r.qHead }

// Stats returns the router's statistics.
func (r *Router) Stats() RouterStats { return r.stats }

// RouterStats are the per-router measurements of §3.1.5: delivery counts
// and times, injection counts and waits, plus algorithm-behaviour counters.
// They are output only — no event reads them — so Commit counts them once
// per committed event and neither Forward nor Reverse touches them. Sums
// and maxima do not depend on the order commits of different routers
// interleave, so every engine ends with the same block. Times are in whole
// synchronous steps.
//
// Commit also leans on one identity: the committed injection-queue head is
// Injected+Discarded, because qHead starts at 0 and only those two outcomes
// move it. At the end of a run, and at every checkpoint cut, qHead equals
// that sum.
type RouterStats struct {
	Delivered       int64
	DeliveredByPrio [routing.NumStates]int64
	TransitTotal    int64 // total delivery time, in steps
	DistTotal       int64
	HopsTotal       int64
	DeliveryMax     int64 // worst delivery time, in steps
	// Delivery profile binned by source-destination distance.
	DelivTimeByDist  [DistBuckets]int64
	DelivCountByDist [DistBuckets]int64
	// Delivery series binned by completion time.
	DelivTimeByTime  [TimeBuckets]int64
	DelivCountByTime [TimeBuckets]int64

	Routed      int64
	Deflections int64
	Upgrades    int64
	Downgrades  int64

	Generated int64
	Injected  int64
	Discarded int64 // self-addressed packets dropped at injection
	WaitTotal int64 // total injection wait, in steps
	WaitMax   int64 // worst injection wait, in steps

	Heartbeats int64
}

// step returns the synchronous time step containing virtual time t.
func step(t core.Time) int64 { return int64(math.Floor(float64(t))) }

// prioOffset staggers routing decisions within a step so higher-priority
// packets claim links first: Running at +0.5, Excited +0.6, Active +0.7,
// Sleeping +0.8 (before the per-packet jitter contribution).
func prioOffset(p routing.State) float64 {
	return float64(routing.Running-p) * prioSpacing
}

// routeTime returns the virtual time at which a packet arriving in step s
// makes its routing decision.
func routeTime(s int64, p *Packet) core.Time {
	return core.Time(float64(s) + routeBase + prioOffset(p.Prio) + p.Jitter*jitterScale)
}

// Forward implements core.Handler.
func (m *Model) Forward(lp *core.LP, ev *core.Event) {
	msg := ev.Data.(*Msg)
	switch msg.Kind {
	case KindArrive:
		m.arrive(lp, ev, msg)
	case KindRoute:
		m.route(lp, ev, msg)
	case KindInject:
		m.inject(lp, ev, msg)
	case KindHeartbeat:
		ev.Bits.Set(bitHeartbeat)
		lp.SendSelf(1.0, newMsg(lp, Msg{Kind: KindHeartbeat}))
	default:
		panic(fmt.Sprintf("hotpotato: unknown event kind %d", msg.Kind))
	}
}

// Reverse implements core.Handler, restoring the routing state Forward
// changed: a link claim, the injection-queue head and a generated entry.
func (m *Model) Reverse(lp *core.LP, ev *core.Event) {
	r := lp.State.(*Router)
	if ev.Bits.Test(bitRouted) || ev.Bits.Test(bitInjected) {
		msg := ev.Data.(*Msg)
		r.claim[msg.SavedDir] = msg.SavedClaim
	}
	if ev.Bits.Test(bitInjected) || ev.Bits.Test(bitDiscarded) {
		r.qHead--
	}
	if ev.Bits.Test(bitGenerated) {
		r.queue = r.queue[:len(r.queue)-1]
	}
}

// Commit implements core.Committer: it counts the event's outcome into the
// router's statistics, reading the payload only for a delivered packet.
// A forwarded arrival sets no flag and returns on its Bits alone.
//
// An injection that moved the queue head also trims the committed prefix,
// keeping injector memory proportional to the uncommitted window instead
// of the whole run. The committed head before the event is
// Injected+Discarded (see RouterStats), and the entry it consumed is still
// in the queue, so the wait is read from it before the trim. The survivors
// are copied down within the array the queue already has; they end where
// they ended before, so Reverse's "drop the last entry" still undoes the
// right generation.
func (m *Model) Commit(lp *core.LP, ev *core.Event) {
	if ev.Bits == 0 {
		return
	}
	r := lp.State.(*Router)
	s := &r.stats
	switch {
	case ev.Bits.Test(bitDelivered):
		m.countDelivery(s, ev.RecvTime(), &ev.Data.(*Msg).P)
	case ev.Bits.Test(bitRouted):
		s.Routed++
		if ev.Bits.Test(bitDeflected) {
			s.Deflections++
		}
		if ev.Bits.Test(bitUpgraded) {
			s.Upgrades++
		}
		if ev.Bits.Test(bitDowngraded) {
			s.Downgrades++
		}
	case ev.Bits.Test(bitHeartbeat):
		s.Heartbeats++
	default:
		if ev.Bits.Test(bitGenerated) {
			s.Generated++
		}
		head := s.Injected + s.Discarded
		switch {
		case ev.Bits.Test(bitInjected):
			wait := step(ev.RecvTime()) - r.queue[head-r.qBase]
			s.Injected++
			s.WaitTotal += wait
			s.WaitMax = max(s.WaitMax, wait)
		case ev.Bits.Test(bitDiscarded):
			s.Discarded++
		default:
			return
		}
		head++
		if drop := head - r.qBase; drop > 256 {
			r.queue = r.queue[:copy(r.queue, r.queue[drop:])]
			r.qBase = head
		}
	}
}

// countDelivery adds a packet absorbed at virtual time t to the delivery
// statistics.
func (m *Model) countDelivery(s *RouterStats, t core.Time, p *Packet) {
	// Both times share the packet's jitter, so the step difference is the
	// exact whole number of steps in transit.
	transit := step(t) - step(p.Born)
	s.Delivered++
	s.DeliveredByPrio[p.Prio]++
	s.TransitTotal += transit
	s.DistTotal += int64(p.Dist)
	s.HopsTotal += int64(p.Hops)
	b := m.distBucket(int(p.Dist))
	s.DelivTimeByDist[b] += transit
	s.DelivCountByDist[b]++
	tb := m.timeBucket(step(t))
	s.DelivTimeByTime[tb] += transit
	s.DelivCountByTime[tb]++
	s.DeliveryMax = max(s.DeliveryMax, transit)
}

// arrive handles a packet arriving at a router: absorb it at its
// destination (unless it is Sleeping and the model runs in the
// theoretical non-absorbing mode) or schedule its routing decision.
func (m *Model) arrive(lp *core.LP, ev *core.Event, msg *Msg) {
	t := ev.RecvTime()
	p := &msg.P
	if p.Dst == lp.ID && (m.cfg.AbsorbSleeping || p.Prio != routing.Sleeping) {
		ev.Bits.Set(bitDelivered)
		return
	}
	s := step(t)
	lp.SendSelf(routeTime(s, p)-t, newMsg(lp, Msg{Kind: KindRoute, P: *p}))
}

// route makes one routing decision: fill the LP's routing context with the
// free/good sets, ask the policy, claim the link, and forward the packet to
// the neighbour for the next step.
func (m *Model) route(lp *core.LP, ev *core.Event, msg *Msg) {
	t := ev.RecvTime()
	s := step(t)
	p := &msg.P
	r := lp.State.(*Router)
	self := int(lp.ID)

	free := freeLinks(r, s)
	if free.Empty() {
		panic(fmt.Sprintf("hotpotato: router %d has no free link in step %d (conservation violated)", self, s))
	}
	ctx := &m.scratch[lp.ID].ctx
	ctx.Prio = p.Prio
	ctx.Free = free
	ctx.Good = m.net.GoodDirs(self, int(p.Dst))
	ctx.HomeRun = m.net.HomeRunDir(self, int(p.Dst))
	dec := m.cfg.Policy.Route(ctx)
	if !free.Has(dec.Dir) {
		panic(fmt.Sprintf("hotpotato: policy %s chose busy/absent link %v", m.cfg.Policy.Name(), dec.Dir))
	}

	ev.Bits.Set(bitRouted)
	msg.SavedDir = dec.Dir
	msg.SavedClaim = r.claim[dec.Dir]
	r.claim[dec.Dir] = s

	if dec.Deflected {
		ev.Bits.Set(bitDeflected)
	}
	switch {
	case dec.NewPrio > p.Prio:
		ev.Bits.Set(bitUpgraded)
	case dec.NewPrio < p.Prio:
		ev.Bits.Set(bitDowngraded)
	}

	next := m.net.Neighbor(self, dec.Dir)
	np := *p
	np.Prio = dec.NewPrio
	np.Hops++
	arrival := core.Time(float64(s+1) + p.Jitter)
	lp.Send(core.LPID(next), arrival-t, newMsg(lp, Msg{Kind: KindArrive, P: np}))
}

// inject runs one step of the injection application: generate a packet,
// and if the router has a free link, put the oldest waiting packet on the
// wire (the report: "a packet can only be injected when there is a free
// link at that router").
func (m *Model) inject(lp *core.LP, ev *core.Event, msg *Msg) {
	t := ev.RecvTime()
	s := step(t)
	r := lp.State.(*Router)

	if m.cfg.InjectionProb >= 1 || lp.Rand() < m.cfg.InjectionProb {
		ev.Bits.Set(bitGenerated)
		r.queue = append(r.queue, s)
	}

	free := freeLinks(r, s)
	if !free.Empty() && r.qHead < r.qBase+int64(len(r.queue)) {
		dst := core.LPID(m.cfg.Traffic.Dest(m.net, int(lp.ID), m.scratch[lp.ID].ctx.RandInt))
		if dst == lp.ID {
			// A deterministic pattern addressed the packet to its own
			// source; drop it rather than wire it (transpose diagonal etc.).
			ev.Bits.Set(bitDiscarded)
			r.qHead++
			lp.SendSelf(1.0, newMsg(lp, Msg{Kind: KindInject}))
			return
		}
		ev.Bits.Set(bitInjected)
		born := r.queue[r.qHead-r.qBase]
		r.qHead++

		jitter := lp.Rand() * maxJitter
		good := m.net.GoodDirs(int(lp.ID), int(dst))
		var dir topology.Direction
		if fg := free & good; !fg.Empty() {
			dir = fg.Nth(int(lp.RandInt(0, int64(fg.Count())-1)))
		} else {
			dir = free.Nth(int(lp.RandInt(0, int64(free.Count())-1)))
		}
		msg.SavedDir = dir
		msg.SavedClaim = r.claim[dir]
		r.claim[dir] = s

		arrival := core.Time(float64(s+1) + jitter)
		pkt := Packet{
			Dst: dst,
			Src: lp.ID,
			// The packet leaves its source during step s and has already
			// traversed one link when it first arrives, so it is born in
			// step s with one hop on the meter — keeping transit equal to
			// links traversed (plus deflection detours) for injected and
			// initial-fill packets alike.
			Prio:        routing.Sleeping,
			Jitter:      jitter,
			Born:        core.Time(float64(s)) + core.Time(jitter),
			Hops:        1,
			CreatedStep: born,
			Dist:        int32(m.net.Dist(int(lp.ID), int(dst))),
		}
		lp.Send(core.LPID(m.net.Neighbor(int(lp.ID), dir)), arrival-t, newMsg(lp, Msg{Kind: KindArrive, P: pkt}))
	}

	// Next attempt, one step later.
	lp.SendSelf(1.0, newMsg(lp, Msg{Kind: KindInject}))
}

// distBucket maps a source-destination distance onto the delivery
// profile's bins.
func (m *Model) distBucket(dist int) int {
	b := dist * DistBuckets / (m.maxDist + 1)
	if b >= DistBuckets {
		b = DistBuckets - 1
	}
	return b
}

// timeBucket maps a completion step onto the time-series bins.
func (m *Model) timeBucket(s int64) int {
	b := int(s * TimeBuckets / int64(m.cfg.Steps))
	if b >= TimeBuckets {
		b = TimeBuckets - 1
	}
	if b < 0 {
		b = 0
	}
	return b
}

// BucketStep returns the representative (central) step of a time-series
// bin.
func (m *Model) BucketStep(bucket int) float64 {
	width := float64(m.cfg.Steps) / TimeBuckets
	return (float64(bucket) + 0.5) * width
}

// BucketDistance returns the representative (central) distance of a
// profile bin — the inverse of distBucket for presentation.
func (m *Model) BucketDistance(bucket int) float64 {
	width := float64(m.maxDist+1) / DistBuckets
	return (float64(bucket) + 0.5) * width
}

// freeLinks returns the router's links not yet claimed in step s.
func freeLinks(r *Router, s int64) topology.DirSet {
	free := r.links
	for d := topology.Direction(0); d < topology.NumDirections; d++ {
		if free.Has(d) && r.claim[d] == s {
			free = free.Remove(d)
		}
	}
	return free
}
