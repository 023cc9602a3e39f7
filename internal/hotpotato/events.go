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

// Msg is the model's message payload. The Saved* fields are the reverse-
// computation save area: Forward records the values it overwrites and
// Reverse restores them (the Bits flags on the event record which branches
// ran).
type Msg struct {
	Kind Kind
	P    Packet

	SavedDir         topology.Direction
	SavedClaim       int64
	SavedWait        int64
	SavedWaitMax     int64
	SavedHeadAfter   int64
	SavedDeliveryMax int64
}

// Event bit-flag indices (the tw_bf analogue).
const (
	bitDelivered   = 0 // Arrive: packet was absorbed here
	bitInjected    = 1 // Inject: a packet entered the network
	bitWaitMax     = 2 // Inject: the worst-case wait was updated
	bitDeflected   = 3 // Route: the packet was deflected
	bitUpgraded    = 4 // Route: priority increased
	bitDowngraded  = 5 // Route: priority decreased
	bitGenerated   = 6 // Inject: a new packet was generated this step
	bitDeliveryMax = 7 // Arrive: the worst-case delivery time was updated
	bitDiscarded   = 8 // Inject: a self-addressed packet was dropped
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
// injection application's queue, and reversible statistics counters.
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

// IsInjector reports whether this router runs an injection application.
func (r *Router) IsInjector() bool { return r.isInjector }

// QueueLen returns the number of packets waiting to be injected.
func (r *Router) QueueLen() int64 { return r.qBase + int64(len(r.queue)) - r.qHead }

// Stats returns the router's statistics.
func (r *Router) Stats() RouterStats { return r.stats }

// RouterStats are the per-router measurements of §3.1.5: delivery counts
// and times, injection counts and waits, plus algorithm-behaviour counters.
// Every field is reversible (counters and saved-max), so statistics survive
// optimistic execution exactly.
// RouterStats fields measuring time do so in whole synchronous steps and
// are int64 on purpose: integer accumulators make += / -= exactly
// invertible, so statistics survive any rollback sequence bit-exactly
// (floating-point accumulators are not associative and would drift after
// reverse computation).
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
		r := lp.State.(*Router)
		r.stats.Heartbeats++
		lp.SendSelf(1.0, newMsg(lp, Msg{Kind: KindHeartbeat}))
	default:
		panic(fmt.Sprintf("hotpotato: unknown event kind %d", msg.Kind))
	}
}

// Reverse implements core.Handler, restoring exactly what Forward changed.
func (m *Model) Reverse(lp *core.LP, ev *core.Event) {
	msg := ev.Data.(*Msg)
	r := lp.State.(*Router)
	switch msg.Kind {
	case KindArrive:
		if ev.Bits.Test(bitDelivered) {
			transit := step(ev.RecvTime()) - step(msg.P.Born)
			r.stats.Delivered--
			r.stats.DeliveredByPrio[msg.P.Prio]--
			r.stats.TransitTotal -= transit
			r.stats.DistTotal -= int64(msg.P.Dist)
			r.stats.HopsTotal -= int64(msg.P.Hops)
			b := m.distBucket(int(msg.P.Dist))
			r.stats.DelivTimeByDist[b] -= transit
			r.stats.DelivCountByDist[b]--
			tb := m.timeBucket(step(ev.RecvTime()))
			r.stats.DelivTimeByTime[tb] -= transit
			r.stats.DelivCountByTime[tb]--
			if ev.Bits.Test(bitDeliveryMax) {
				r.stats.DeliveryMax = msg.SavedDeliveryMax
			}
		}
	case KindRoute:
		r.claim[msg.SavedDir] = msg.SavedClaim
		r.stats.Routed--
		if ev.Bits.Test(bitDeflected) {
			r.stats.Deflections--
		}
		if ev.Bits.Test(bitUpgraded) {
			r.stats.Upgrades--
		}
		if ev.Bits.Test(bitDowngraded) {
			r.stats.Downgrades--
		}
	case KindInject:
		if ev.Bits.Test(bitInjected) {
			if ev.Bits.Test(bitWaitMax) {
				r.stats.WaitMax = msg.SavedWaitMax
			}
			r.stats.WaitTotal -= msg.SavedWait
			r.stats.Injected--
			r.claim[msg.SavedDir] = msg.SavedClaim
			r.qHead--
		}
		if ev.Bits.Test(bitDiscarded) {
			r.stats.Discarded--
			r.qHead--
		}
		if ev.Bits.Test(bitGenerated) {
			r.queue = r.queue[:len(r.queue)-1]
			r.stats.Generated--
		}
	case KindHeartbeat:
		r.stats.Heartbeats--
	}
}

// Commit implements core.Committer: once an injection event is final, the
// queue entries it consumed can never be re-read, so the committed prefix
// is trimmed to keep injector memory proportional to the uncommitted
// window instead of the whole run. The survivors are copied down within the
// array the queue already has; they end where they ended before, so
// Reverse's "drop the last entry" still undoes the right generation.
//
// Only an injection that moved qHead — bitInjected or bitDiscarded, which
// no other kind sets — can change the trim, so every other event returns
// on its Bits alone, without touching its payload.
func (m *Model) Commit(lp *core.LP, ev *core.Event) {
	if !ev.Bits.Test(bitInjected) && !ev.Bits.Test(bitDiscarded) {
		return
	}
	msg := ev.Data.(*Msg)
	r := lp.State.(*Router)
	if drop := msg.SavedHeadAfter - r.qBase; drop > 256 {
		r.queue = r.queue[:copy(r.queue, r.queue[drop:])]
		r.qBase = msg.SavedHeadAfter
	}
}

// arrive handles a packet arriving at a router: absorb it at its
// destination (unless it is Sleeping and the model runs in the
// theoretical non-absorbing mode) or schedule its routing decision.
func (m *Model) arrive(lp *core.LP, ev *core.Event, msg *Msg) {
	t := ev.RecvTime()
	p := &msg.P
	r := lp.State.(*Router)
	if p.Dst == lp.ID && (m.cfg.AbsorbSleeping || p.Prio != routing.Sleeping) {
		ev.Bits.Set(bitDelivered)
		// Both times share the packet's jitter, so the step difference is
		// the exact whole number of steps in transit.
		transit := step(t) - step(p.Born)
		r.stats.Delivered++
		r.stats.DeliveredByPrio[p.Prio]++
		r.stats.TransitTotal += transit
		r.stats.DistTotal += int64(p.Dist)
		r.stats.HopsTotal += int64(p.Hops)
		b := m.distBucket(int(p.Dist))
		r.stats.DelivTimeByDist[b] += transit
		r.stats.DelivCountByDist[b]++
		tb := m.timeBucket(step(t))
		r.stats.DelivTimeByTime[tb] += transit
		r.stats.DelivCountByTime[tb]++
		if transit > r.stats.DeliveryMax {
			ev.Bits.Set(bitDeliveryMax)
			msg.SavedDeliveryMax = r.stats.DeliveryMax
			r.stats.DeliveryMax = transit
		}
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

	msg.SavedDir = dec.Dir
	msg.SavedClaim = r.claim[dec.Dir]
	r.claim[dec.Dir] = s

	r.stats.Routed++
	if dec.Deflected {
		ev.Bits.Set(bitDeflected)
		r.stats.Deflections++
	}
	switch {
	case dec.NewPrio > p.Prio:
		ev.Bits.Set(bitUpgraded)
		r.stats.Upgrades++
	case dec.NewPrio < p.Prio:
		ev.Bits.Set(bitDowngraded)
		r.stats.Downgrades++
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
		r.stats.Generated++
	}

	free := freeLinks(r, s)
	if !free.Empty() && r.qHead < r.qBase+int64(len(r.queue)) {
		dst := core.LPID(m.cfg.Traffic.Dest(m.net, int(lp.ID), m.scratch[lp.ID].ctx.RandInt))
		if dst == lp.ID {
			// A deterministic pattern addressed the packet to its own
			// source; drop it rather than wire it (transpose diagonal etc.).
			ev.Bits.Set(bitDiscarded)
			r.qHead++
			r.stats.Discarded++
			msg.SavedHeadAfter = r.qHead
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
		wait := s - born
		msg.SavedWait = wait
		r.stats.Injected++
		r.stats.WaitTotal += wait
		if wait > r.stats.WaitMax {
			ev.Bits.Set(bitWaitMax)
			msg.SavedWaitMax = r.stats.WaitMax
			r.stats.WaitMax = wait
		}
		lp.Send(core.LPID(m.net.Neighbor(int(lp.ID), dir)), arrival-t, newMsg(lp, Msg{Kind: KindArrive, P: pkt}))
	}
	msg.SavedHeadAfter = r.qHead

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
