package hotpotato

import (
	"fmt"
	"strings"

	"repro/internal/core"
)

// Totals are the system-wide aggregates of §3.1.5: every router's
// statistics folded together by the statistics-collection visitor, plus
// the derived averages the report's figures plot.
type Totals struct {
	Routers   int
	Injectors int

	// Delivery statistics (Figure 3).
	Delivered       int64
	DeliveredByPrio [4]int64
	AvgDelivery     float64 // average time steps in transit
	MaxDelivery     float64 // worst observed delivery time
	AvgDistance     float64 // average source-destination distance
	AvgHops         float64 // average links traversed
	Stretch         float64 // AvgHops / AvgDistance

	// Routing behaviour.
	Routed         int64
	Deflections    int64
	DeflectionRate float64
	Upgrades       int64
	Downgrades     int64

	// Injection statistics (Figure 4).
	Generated   int64
	Injected    int64
	Discarded   int64 // self-addressed packets dropped (deterministic patterns)
	StillQueued int64
	AvgWait     float64 // average steps a packet waited to be injected
	MaxWait     float64 // worst-case wait (report: "longest time any packet had to wait")

	Heartbeats int64
}

// Totals aggregates every router's statistics from a finished host. It is
// the model's statistics-collection function: like the report's visitor
// functor it runs once per LP after the simulation completes.
func (m *Model) Totals(h core.Host) Totals {
	var t Totals
	h.ForEachLP(func(lp *core.LP) {
		r := lp.State.(*Router)
		s := r.stats
		t.Routers++
		if r.isInjector {
			t.Injectors++
		}
		t.Delivered += s.Delivered
		for i, c := range s.DeliveredByPrio {
			t.DeliveredByPrio[i] += c
		}
		t.AvgDelivery += float64(s.TransitTotal)
		t.AvgDistance += float64(s.DistTotal)
		t.AvgHops += float64(s.HopsTotal)
		t.Routed += s.Routed
		t.Deflections += s.Deflections
		t.Upgrades += s.Upgrades
		t.Downgrades += s.Downgrades
		t.Generated += s.Generated
		t.Injected += s.Injected
		t.Discarded += s.Discarded
		t.AvgWait += float64(s.WaitTotal)
		if w := float64(s.WaitMax); w > t.MaxWait {
			t.MaxWait = w
		}
		if d := float64(s.DeliveryMax); d > t.MaxDelivery {
			t.MaxDelivery = d
		}
		t.Heartbeats += s.Heartbeats
	})
	t.StillQueued = t.Generated - t.Injected - t.Discarded
	if t.Delivered > 0 {
		t.AvgDelivery /= float64(t.Delivered)
		t.AvgDistance /= float64(t.Delivered)
		t.AvgHops /= float64(t.Delivered)
		if t.AvgDistance > 0 {
			t.Stretch = t.AvgHops / t.AvgDistance
		}
	}
	if t.Routed > 0 {
		t.DeflectionRate = float64(t.Deflections) / float64(t.Routed)
	}
	if t.Injected > 0 {
		t.AvgWait /= float64(t.Injected)
	}
	return t
}

// DistPoint is one bin of the delivery-time-vs-distance profile.
type DistPoint struct {
	// Distance is the representative source-destination distance of the
	// bin.
	Distance float64
	// Count is the number of packets delivered in the bin.
	Count int64
	// AvgDelivery is the mean delivery time of those packets.
	AvgDelivery float64
}

// DeliveryProfile aggregates the per-distance delivery profile across all
// routers: the empirical E[delivery | distance] curve, which the SPAA 2001
// analysis predicts is O(distance) in expectation. Empty bins are omitted.
func (m *Model) DeliveryProfile(h core.Host) []DistPoint {
	var times, counts [DistBuckets]int64
	h.ForEachLP(func(lp *core.LP) {
		s := &lp.State.(*Router).stats
		for b := 0; b < DistBuckets; b++ {
			times[b] += s.DelivTimeByDist[b]
			counts[b] += s.DelivCountByDist[b]
		}
	})
	var out []DistPoint
	for b := 0; b < DistBuckets; b++ {
		if counts[b] == 0 {
			continue
		}
		out = append(out, DistPoint{
			Distance:    m.BucketDistance(b),
			Count:       counts[b],
			AvgDelivery: float64(times[b]) / float64(counts[b]),
		})
	}
	return out
}

// TimePoint is one bin of the delivery time series.
type TimePoint struct {
	// Step is the representative simulation step of the bin.
	Step float64
	// Count is the number of packets delivered during the bin.
	Count int64
	// AvgDelivery is their mean delivery time.
	AvgDelivery float64
}

// TimeSeries aggregates the delivery series across routers: delivery rate
// and mean latency as functions of simulation time. It exposes the
// warm-up transient (the initial fill draining) and the steady state that
// the aggregate statistics summarise. Empty bins are omitted.
func (m *Model) TimeSeries(h core.Host) []TimePoint {
	var times, counts [TimeBuckets]int64
	h.ForEachLP(func(lp *core.LP) {
		s := &lp.State.(*Router).stats
		for b := 0; b < TimeBuckets; b++ {
			times[b] += s.DelivTimeByTime[b]
			counts[b] += s.DelivCountByTime[b]
		}
	})
	var out []TimePoint
	for b := 0; b < TimeBuckets; b++ {
		if counts[b] == 0 {
			continue
		}
		out = append(out, TimePoint{
			Step:        m.BucketStep(b),
			Count:       counts[b],
			AvgDelivery: float64(times[b]) / float64(counts[b]),
		})
	}
	return out
}

// String renders the totals in the spirit of the report's sample output.
func (t Totals) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "network: %d routers, %d injectors\n", t.Routers, t.Injectors)
	fmt.Fprintf(&b, "  packets delivered:   %d (sleep=%d active=%d excited=%d running=%d)\n",
		t.Delivered, t.DeliveredByPrio[0], t.DeliveredByPrio[1], t.DeliveredByPrio[2], t.DeliveredByPrio[3])
	fmt.Fprintf(&b, "  avg delivery time:   %.3f steps (max %.3f, avg distance %.3f, avg hops %.3f, stretch %.3f)\n",
		t.AvgDelivery, t.MaxDelivery, t.AvgDistance, t.AvgHops, t.Stretch)
	fmt.Fprintf(&b, "  routing decisions:   %d (%.2f%% deflected, %d upgrades, %d downgrades)\n",
		t.Routed, 100*t.DeflectionRate, t.Upgrades, t.Downgrades)
	fmt.Fprintf(&b, "  packets generated:   %d, injected %d, still queued %d\n",
		t.Generated, t.Injected, t.StillQueued)
	if t.Discarded > 0 {
		fmt.Fprintf(&b, "  self-addressed:      %d discarded\n", t.Discarded)
	}
	fmt.Fprintf(&b, "  avg wait to inject:  %.3f steps (max %.0f)\n", t.AvgWait, t.MaxWait)
	if t.Heartbeats > 0 {
		fmt.Fprintf(&b, "  heartbeats:          %d\n", t.Heartbeats)
	}
	return b.String()
}
