package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"repro/internal/core"
	"repro/internal/routing"
	"repro/internal/topology"
	"repro/internal/traffic"
)

// The tracer measures every layer from outside, through public API only:
// a timing wrapper on each LP's Handler, wrappers around the routing policy
// and traffic pattern, a wrapper around the checkpoint sink, and a
// core.RecordSink for rollback depths and GVT round times (the model
// packages build core.Config themselves and pass on neither OnRollback nor,
// for PHOLD, OnGVT, so SetRecord is the one hook that reaches both).
//
// Nothing here is shared between PEs while a run is in flight: handler
// time accumulates in the LP's own wrapper, rollback depths in the PE's own
// padded shard, GVT and checkpoint times on PE 0, and policy/pattern time
// in accumulators handed out per P by a sync.Pool. Spans are kept in memory
// and written when the benchmark ends.

// span is one timed interval. Parent is the index of the enclosing span in
// the file (-1 for a repetition's root); spans of one repetition share Rep.
type span struct {
	Name     string `json:"name"`
	Workload string `json:"workload,omitempty"`
	Rep      int    `json:"rep"`
	Parent   int    `json:"parent"`
	StartNs  int64  `json:"start_ns"`
	EndNs    int64  `json:"end_ns"`
	// SelfNs is set on "run" spans: duration × PEs minus the handler and
	// checkpoint time inside it.
	SelfNs int64 `json:"self_ns,omitempty"`
}

// aggregate is a layer whose calls are too many to keep as spans: count and
// total time per repetition.
type aggregate struct {
	Name     string `json:"name"`
	Workload string `json:"workload"`
	Rep      int    `json:"rep"`
	Count    int64  `json:"count"`
	TotalNs  int64  `json:"total_ns"`
}

// tracer collects the spans and aggregates of every traced repetition of
// one benchmark invocation.
type tracer struct {
	spans      []span
	aggregates []aggregate
}

// add appends a finished span and returns its index.
func (t *tracer) add(s span) int {
	t.spans = append(t.spans, s)
	return len(t.spans) - 1
}

func (t *tracer) write(path string, ctx runContext) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(struct {
		Context    runContext  `json:"context"`
		Spans      []span      `json:"spans"`
		Aggregates []aggregate `json:"aggregates"`
	}{ctx, t.spans, t.aggregates})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// callAcc counts calls and their total time. It is padded to a cache line
// so accumulators of different PEs never share one.
type callAcc struct {
	n, ns int64
	_     [48]byte
}

// accPool hands each caller an accumulator nobody else holds. sync.Pool
// keeps a per-P cache, so in steady state every PE gets the same one back
// without touching another PE's cache lines; all holds every accumulator
// ever made, because the pool itself may drop them at a GC.
type accPool struct {
	pool sync.Pool
	mu   sync.Mutex
	all  []*callAcc
}

func (p *accPool) get() *callAcc {
	if a, ok := p.pool.Get().(*callAcc); ok {
		return a
	}
	a := new(callAcc)
	p.mu.Lock()
	p.all = append(p.all, a)
	p.mu.Unlock()
	return a
}

// total sums the accumulators once the run has joined.
func (p *accPool) total() (t callAcc) {
	for _, a := range p.all {
		t.n += a.n
		t.ns += a.ns
	}
	return t
}

// repTrace holds the wrappers and raw observations of one traced
// repetition. A nil *repTrace is an untraced repetition: every wrap method
// then returns its argument unchanged.
type repTrace struct {
	handlers []*timedHandler
	route    accPool
	dest     accPool
	pes      []peShard // rollback depths, one shard per PE
	gvtAt    []int64   // time of each GVT round, PE 0 only
	ckpts    []ckptPub // PE 0 only
}

type peShard struct {
	depths []int32
	_      [40]byte
}

type ckptPub struct {
	start, end int64
	bytes      int64
}

// timedHandler wraps one LP's handler. Its counters live in the wrapper
// itself, and an LP is only ever touched by the PE that owns it.
type timedHandler struct {
	inner                    core.Handler
	fwdN, fwdNs, revN, revNs int64
	cmtN, cmtNs              int64
}

func (h *timedHandler) Forward(lp *core.LP, ev *core.Event) {
	t0 := nowNs()
	h.inner.Forward(lp, ev)
	h.fwdNs += nowNs() - t0
	h.fwdN++
}

func (h *timedHandler) Reverse(lp *core.LP, ev *core.Event) {
	t0 := nowNs()
	h.inner.Reverse(lp, ev)
	h.revNs += nowNs() - t0
	h.revN++
}

// timedCommitter is the wrapper for handlers that implement core.Committer
// or core.Recycler: the kernel finds those by type assertion on LP.Handler,
// so the wrapper must forward them or the model silently loses them.
type timedCommitter struct {
	timedHandler
	committer core.Committer
	recycler  core.Recycler
}

func (h *timedCommitter) Commit(lp *core.LP, ev *core.Event) {
	if h.committer == nil {
		return
	}
	t0 := nowNs()
	h.committer.Commit(lp, ev)
	h.cmtNs += nowNs() - t0
	h.cmtN++
}

func (h *timedCommitter) Recycle(data any) {
	if h.recycler != nil {
		h.recycler.Recycle(data)
	}
}

func (r *repTrace) wrapHandlers(h core.Host) {
	if r == nil {
		return
	}
	h.ForEachLP(func(lp *core.LP) {
		committer, _ := lp.Handler.(core.Committer)
		recycler, _ := lp.Handler.(core.Recycler)
		if committer == nil && recycler == nil {
			th := &timedHandler{inner: lp.Handler}
			r.handlers = append(r.handlers, th)
			lp.Handler = th
			return
		}
		tc := &timedCommitter{timedHandler{inner: lp.Handler}, committer, recycler}
		r.handlers = append(r.handlers, &tc.timedHandler)
		lp.Handler = tc
	})
}

type timedPolicy struct {
	inner routing.Policy
	r     *repTrace
}

func (p timedPolicy) Name() string { return p.inner.Name() }

func (p timedPolicy) Route(ctx *routing.Ctx) routing.Decision {
	t0 := nowNs()
	d := p.inner.Route(ctx)
	dt := nowNs() - t0
	a := p.r.route.get()
	a.n++
	a.ns += dt
	p.r.route.pool.Put(a)
	return d
}

func (r *repTrace) wrapPolicy(p routing.Policy) routing.Policy {
	if r == nil {
		return p
	}
	return timedPolicy{p, r}
}

type timedPattern struct {
	inner traffic.Pattern
	r     *repTrace
}

func (p timedPattern) Name() string { return p.inner.Name() }

func (p timedPattern) Dest(net topology.Network, src int, rand traffic.RandInt) int {
	t0 := nowNs()
	d := p.inner.Dest(net, src, rand)
	dt := nowNs() - t0
	a := p.r.dest.get()
	a.n++
	a.ns += dt
	p.r.dest.pool.Put(a)
	return d
}

func (r *repTrace) wrapTraffic(p traffic.Pattern) traffic.Pattern {
	if r == nil {
		return p
	}
	return timedPattern{p, r}
}

// timedSink times each checkpoint publication and reads the size of the
// file it left. Checkpoint runs on PE 0 while the other PEs are parked.
type timedSink struct {
	inner core.CheckpointSink
	r     *repTrace
	dir   string
}

func (s *timedSink) Checkpoint(cs *core.CheckpointState) error {
	start := nowNs()
	err := s.inner.Checkpoint(cs)
	pub := ckptPub{start: start, end: nowNs()}
	// A fresh directory's writer numbers its files from 1.
	name := fmt.Sprintf("checkpoint-%06d.ckpt", len(s.r.ckpts)+1)
	if fi, serr := os.Stat(filepath.Join(s.dir, name)); serr == nil {
		pub.bytes = fi.Size()
	}
	s.r.ckpts = append(s.r.ckpts, pub)
	return err
}

func (r *repTrace) wrapSink(sink core.CheckpointSink, dir string) core.CheckpointSink {
	if r == nil {
		return sink
	}
	return &timedSink{sink, r, dir}
}

// attach installs the record sink on a parallel simulator.
func (r *repTrace) attach(sim *core.Simulator) {
	if r == nil {
		return
	}
	r.pes = make([]peShard, sim.NumPEs())
	sim.SetRecord(r)
}

// MailBatch implements core.RecordSink; mail counts come from Stats.
func (r *repTrace) MailBatch(dst, src, n int) {}

// Rollback implements core.RecordSink on the rolling-back PE's goroutine.
func (r *repTrace) Rollback(pe, kp, events int, secondary, forced bool) {
	sh := &r.pes[pe]
	sh.depths = append(sh.depths, int32(events))
}

// GVTRound implements core.RecordSink on PE 0.
func (r *repTrace) GVTRound(round int64, gvt core.Time) {
	r.gvtAt = append(r.gvtAt, nowNs())
}

// handlerTotals sums the per-LP wrappers after the run has joined.
func (r *repTrace) handlerTotals() (fwd, rev, cmt callAcc) {
	for _, h := range r.handlers {
		fwd.n += h.fwdN
		fwd.ns += h.fwdNs
		rev.n += h.revN
		rev.ns += h.revNs
		cmt.n += h.cmtN
		cmt.ns += h.cmtNs
	}
	return fwd, rev, cmt
}

// finish turns the repetition's raw observations into spans under the run
// span (one per checkpoint publication and per GVT interval) and per-layer
// aggregates, and sets the run span's self time.
func (r *repTrace) finish(tr *tracer, w workload, rep, run int) {
	fwd, rev, cmt := r.handlerTotals()
	child := fwd.ns + rev.ns + cmt.ns
	for _, c := range r.ckpts {
		tr.add(span{Name: "checkpoint", Workload: w.name, Rep: rep, Parent: run, StartNs: c.start, EndNs: c.end})
		child += c.end - c.start
	}
	prev := tr.spans[run].StartNs
	for _, at := range r.gvtAt {
		tr.add(span{Name: "gvt_interval", Workload: w.name, Rep: rep, Parent: run, StartNs: prev, EndNs: at})
		prev = at
	}
	tr.spans[run].SelfNs = (tr.spans[run].EndNs-tr.spans[run].StartNs)*int64(w.pes) - child

	for _, a := range []struct {
		name string
		acc  callAcc
	}{
		{w.layer + ".forward", fwd}, {w.layer + ".reverse", rev}, {w.layer + ".commit", cmt},
		{"routing.route", r.route.total()}, {"traffic.dest", r.dest.total()},
	} {
		if a.acc.n > 0 {
			tr.aggregates = append(tr.aggregates, aggregate{a.name, w.name, rep, a.acc.n, a.acc.ns})
		}
	}
}
