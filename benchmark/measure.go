package main

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"syscall"
	"time"

	"repro/internal/core"
)

// sample is what one repetition (a fresh build → run) yields. A failed
// repetition carries only err and contributes no timing.
type sample struct {
	setup, wall time.Duration
	cpu         time.Duration // process user+sys over run
	mallocs     uint64        // MemStats.Mallocs delta over run
	allocBytes  uint64        // MemStats.TotalAlloc delta over run
	stats       *core.Stats
	trace       *repTrace // nil on untraced repetitions
	err         error
}

// expected is the sequential-engine answer every repetition must reproduce.
type expected struct {
	committed int64
	result    any
}

// nowNs is the benchmark's one clock: monotonic nanoseconds since start-up.
// time.Since on a fixed base reads only the monotonic clock, which makes it
// cheap enough for the per-event wrappers in trace.go.
var clockBase = time.Now()

func nowNs() int64 { return int64(time.Since(clockBase)) }

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// runOracle runs the workload's model on the sequential engine. Its wall
// time doubles as a sample of the sequential event rate for
// core.speedup_vs_seq.
func runOracle(w workload, seed uint64) (expected, time.Duration, error) {
	runtime.GC()
	inst, err := w.oracle(seed)
	if err != nil {
		return expected{}, 0, err
	}
	t0 := nowNs()
	st, err := inst.run()
	wall := time.Duration(nowNs() - t0)
	if err != nil {
		return expected{}, 0, err
	}
	return expected{st.Committed, inst.result()}, wall, nil
}

// runRep is one operation: collect garbage outside the timed region, build
// a fresh instance (timed as set-up), run it (timed), and check its
// committed count and model result against the oracle. tr, when non-nil,
// makes this a traced repetition with number rep.
func runRep(w workload, seed uint64, want expected, tr *tracer, rep int) sample {
	var rt *repTrace
	if tr != nil {
		rt = new(repTrace)
	}
	runtime.GC()

	b0 := nowNs()
	inst, err := w.build(seed, rt)
	b1 := nowNs()
	s := sample{setup: time.Duration(b1 - b0), trace: rt}
	if err != nil {
		s.err = fmt.Errorf("build: %w", err)
		return s
	}
	if inst.cleanup != nil {
		defer inst.cleanup()
	}

	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	c0 := cpuTime()
	r0 := nowNs()
	st, err := inst.run()
	r1 := nowNs()
	s.wall = time.Duration(r1 - r0)
	s.cpu = cpuTime() - c0
	runtime.ReadMemStats(&m1)
	s.mallocs = m1.Mallocs - m0.Mallocs
	s.allocBytes = m1.TotalAlloc - m0.TotalAlloc
	s.stats = st
	if err != nil {
		s.err = fmt.Errorf("run: %w", err)
		return s
	}

	t0 := nowNs()
	got := inst.result()
	t1 := nowNs()
	switch {
	case st.Committed != want.committed:
		s.err = fmt.Errorf("committed %d events, the sequential oracle %d", st.Committed, want.committed)
	case got != want.result:
		s.err = fmt.Errorf("model result differs from the sequential oracle:\n got %+v\nwant %+v", got, want.result)
	}

	if tr != nil {
		root := tr.add(span{Name: "rep", Workload: w.name, Rep: rep, Parent: -1, StartNs: b0, EndNs: t1})
		tr.add(span{Name: "build", Workload: w.name, Rep: rep, Parent: root, StartNs: b0, EndNs: b1})
		run := tr.add(span{Name: "run", Workload: w.name, Rep: rep, Parent: root, StartNs: r0, EndNs: r1})
		tr.add(span{Name: "totals", Workload: w.name, Rep: rep, Parent: root, StartNs: t0, EndNs: t1})
		rt.finish(tr, w, rep, run)
	}
	return s
}

// summary is the median and quartiles of a set of per-repetition values.
// With the repetition counts this benchmark can afford (about 10 to 30) no
// percentile beyond the quartiles has ten samples past it, so none is
// reported.
type summary struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	N      int     `json:"n"`
}

// summarize uses the same quartile rule as Python's
// statistics.quantiles(values, n=4), so the numbers compare directly with
// the ones the driver computes.
func summarize(values []float64) summary {
	v := append([]float64(nil), values...)
	sort.Float64s(v)
	n := len(v)
	switch n {
	case 0:
		return summary{}
	case 1:
		return summary{v[0], v[0], v[0], 1}
	}
	q := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*(n+1) - j*4)
		return (v[j-1]*(4-delta) + v[j]*delta) / 4
	}
	return summary{Median: q(2), Q1: q(1), Q3: q(3), N: n}
}

// spread is the interquartile distance as a share of the median.
func (s summary) spread() float64 {
	if s.Median == 0 {
		return 0
	}
	return (s.Q3 - s.Q1) / s.Median
}

// resolution is how finely the median is known, as a share of the median:
// the half-width of the box-plot notch, 1.57 × (q3 − q1) / √n (McGill,
// Tukey & Larsen 1978), within which two medians cannot be told apart at
// roughly the 95 % level. Single repetitions of the 2-PE workloads spread
// by far more than any bound; it is the repetition count that makes their
// median usable, and this is the figure that says whether it is.
func (s summary) resolution() float64 {
	if s.N == 0 {
		return 0
	}
	return 1.57 * s.spread() / math.Sqrt(float64(s.N))
}
