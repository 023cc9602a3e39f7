package main

import (
	"math"

	"repro/internal/eventq"
	"repro/internal/rng"
)

// The probes time two layers the wrappers cannot reach, because the kernel
// owns the pending queue and the LPs' random streams: they drive the same
// public constructors (eventq.NewLadder, rng.NewStream) stand-alone, under
// the access pattern of the workload being reported.

type probes struct {
	hold, uniform, reverse summary
}

// probeChunks is how many timed chunks each probe runs; the reported value
// is the median chunk's time per operation.
const probeChunks = 8

type holdItem struct {
	t  float64
	id int32
}

func holdLess(a, b holdItem) bool {
	if a.t != b.t {
		return a.t < b.t
	}
	return a.id < b.id
}

// probeHold times the classic hold operation (pop the minimum, push it back
// later) on a ladder queue at the workload's pending population and
// timestamp-increment law. The torus law is the model's sub-step schedule:
// a packet alternates between arriving at step+jitter and routing at
// step+0.5+band+jitter/10, so timestamps cluster in bands inside each unit
// step. The PHOLD law is lookahead plus an exponential hold. Increments are
// drawn before the timed region.
func probeHold(w workload, sc scale, seed uint64) summary {
	st := rng.NewStream(seed ^ 0x9E3779B97F4A7C15)
	q := eventq.NewLadder(holdLess, func(h holdItem) float64 { return h.t })

	var next func(h holdItem) float64
	var population int
	if w.layer == "hotpotato" {
		population = sc.torusN * sc.torusN * 4 // the network starts full: four packets per router
		jitter := make([]float64, population)
		band := make([]float64, population)
		routing := make([]bool, population)
		for i := range jitter {
			jitter[i] = st.Uniform() * 0.5
			band[i] = 0.1 * float64(st.Integer(0, 3))
		}
		next = func(h holdItem) float64 {
			step := math.Floor(h.t)
			routing[h.id] = !routing[h.id]
			if routing[h.id] {
				return step + 0.5 + band[h.id] + jitter[h.id]/10
			}
			return step + 1 + jitter[h.id]
		}
		for i := 0; i < population; i++ {
			q.Push(holdItem{jitter[i], int32(i)})
		}
	} else {
		population = sc.pholdLPs * 8
		inc := make([]float64, 1<<16)
		for i := range inc {
			inc[i] = 0.1 + st.Exponential(1)
		}
		n := 0
		next = func(h holdItem) float64 {
			n++
			return h.t + inc[n&(len(inc)-1)]
		}
		for i := 0; i < population; i++ {
			q.Push(holdItem{float64(i+1) * 1e-6, int32(i)})
		}
	}

	hold := func(n int) {
		for i := 0; i < n; i++ {
			h, _ := q.Pop()
			h.t = next(h)
			q.Push(h)
		}
	}
	hold(4 * population) // reach the steady-state timestamp distribution
	var perOp []float64
	for c := 0; c < probeChunks; c++ {
		t0 := nowNs()
		hold(sc.holdsPerChunk)
		perOp = append(perOp, float64(nowNs()-t0)/float64(sc.holdsPerChunk))
	}
	return summarize(perOp)
}

var rngSink float64

// probeRNG times one Uniform draw and one reversed draw.
func probeRNG(sc scale, seed uint64) (uniform, reverse summary) {
	st := rng.NewStream(seed)
	var u, r []float64
	for c := 0; c < probeChunks; c++ {
		t0 := nowNs()
		for i := 0; i < sc.drawsPerChunk; i++ {
			rngSink += st.Uniform()
		}
		t1 := nowNs()
		for i := 0; i < sc.drawsPerChunk; i++ {
			st.Reverse(1)
		}
		t2 := nowNs()
		u = append(u, float64(t1-t0)/float64(sc.drawsPerChunk))
		r = append(r, float64(t2-t1)/float64(sc.drawsPerChunk))
	}
	return summarize(u), summarize(r)
}
