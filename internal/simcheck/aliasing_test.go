package simcheck

import (
	"math"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/hotpotato"
	"repro/internal/replay"
	"repro/internal/trace"
)

// aliasing is a seeded payload-aliasing bug: a send that wires in a payload
// another live event still carries. The kernel makes a dead event's payload
// a spare of its PE, and the next send on that PE overwrites it, so the
// sharer reads someone else's message.
type aliasing int

const (
	aliasNone   aliasing = iota // every send carries a payload of its own
	aliasResend                 // a send re-sends the in-flight event's payload
	aliasTwice                  // one fresh payload is wired into two sends
)

func (a aliasing) String() string {
	return [...]string{"none", "resend", "twice"}[a]
}

// The probe chain's marks. probeKind is a hot-potato Kind the model never
// sends; probeBit is an ev.Bits flag above the ones hot-potato sets; chain
// links sit at a sub-step phase no hot-potato event uses.
const (
	probeKind  hotpotato.Kind = 0xff
	probeBit                  = 31
	probePhase                = 0.875
)

// aliasProbe wraps a hot-potato LP handler with a chain of probe events,
// one link per step. Each link sends the next link one step later and a
// terminal twin half a step later. Probe payloads are *hotpotato.Msg, taken
// from and returned to the same spare stack the model's sends use, and the
// wrapper handles probe events itself: with aliasNone the probes commit
// nothing the model or the trace sees, so a run can differ from its
// reference only through a payload two live events share.
type aliasProbe struct {
	inner core.Handler
	bug   aliasing
}

func (a aliasProbe) Forward(lp *core.LP, ev *core.Event) {
	m, ok := ev.Data.(*hotpotato.Msg)
	if !ok || m.Kind != probeKind {
		a.inner.Forward(lp, ev)
		return
	}
	ev.Bits.Set(probeBit)
	if math.Mod(float64(ev.RecvTime()), 1) != probePhase {
		return // a terminal twin
	}
	next := m
	if a.bug != aliasResend {
		next = freshProbe(lp)
	}
	twin := next
	if a.bug != aliasTwice {
		twin = freshProbe(lp)
	}
	lp.SendSelf(1, next)
	lp.SendSelf(0.5, twin)
}

func (a aliasProbe) Reverse(lp *core.LP, ev *core.Event) {
	if !ev.Bits.Test(probeBit) {
		a.inner.Reverse(lp, ev)
	}
}

func (a aliasProbe) Commit(lp *core.LP, ev *core.Event) {
	if !ev.Bits.Test(probeBit) {
		a.inner.(core.Committer).Commit(lp, ev)
	}
}

// freshProbe takes a spare the way hot-potato's own sends do and
// overwrites it wholly.
func freshProbe(lp *core.LP) *hotpotato.Msg {
	m, ok := lp.Spare().(*hotpotato.Msg)
	if !ok {
		m = new(hotpotato.Msg)
	}
	*m = hotpotato.Msg{Kind: probeKind}
	return m
}

// runProbed runs hot-potato cell c with the probe chain wrapped around
// every LP's traced handler and returns what the oracle compares.
func runProbed(c Cell, bug aliasing) (replay.Fingerprint, error) {
	inst, err := buildHotpotato(c, 0)
	if err != nil {
		return replay.Fingerprint{}, err
	}
	inst.eng.ForEachLP(func(lp *core.LP) {
		lp.Handler = aliasProbe{inner: lp.Handler, bug: bug}
	})
	for id := range inst.eng.NumLPs() {
		inst.eng.Schedule(core.LPID(id), probePhase, &hotpotato.Msg{Kind: probeKind})
	}
	stats, err := inst.eng.Run()
	if err != nil {
		return replay.Fingerprint{}, err
	}
	return replay.Fingerprint{
		Committed: stats.Committed,
		TraceLen:  inst.rec.Len(),
		TraceHash: inst.rec.Hash(),
		LPHashes:  inst.rec.LPHashes(inst.eng.NumLPs()),
		StateHash: trace.StateHash(inst.eng),
	}, nil
}

// TestPayloadAliasingDetected: the differential oracle catches both
// payload-aliasing bugs in an optimistic hot-potato cell, with and without
// the default fault plan, and stays quiet on the same probe chain without
// the aliasing. As with a Mutation, the bug is armed in the optimistic cell
// only and the sequential reference runs clean. A run that fails counts as
// caught, as it does in the matrix: a probe link that reads a reissued
// model message makes the model panic.
func TestPayloadAliasingDetected(t *testing.T) {
	ref, err := runProbed(Cell{Model: "hotpotato", Engine: core.KindSequential, PEs: 1, KPs: 1, Seed: 1}, aliasNone)
	if err != nil {
		t.Fatal(err)
	}
	for _, faults := range []*core.Faults{nil, DefaultFaults()} {
		for _, bug := range []aliasing{aliasNone, aliasResend, aliasTwice} {
			cell := Cell{Model: "hotpotato", Engine: core.KindOptimistic, PEs: 2, KPs: 8, Seed: 1, Faults: faults}
			got, err := runProbed(cell, bug)
			diffs := Compare(ref, got)
			if err != nil {
				msg, _, _ := strings.Cut(err.Error(), "\n")
				diffs = []string{"run failed: " + msg}
			}
			if caught := len(diffs) > 0; caught != (bug != aliasNone) {
				t.Errorf("[%s] aliasing=%s: caught=%v %q", cell, bug, caught, diffs)
			} else {
				t.Logf("[%s] aliasing=%s: %q", cell, bug, diffs)
			}
		}
	}
}
