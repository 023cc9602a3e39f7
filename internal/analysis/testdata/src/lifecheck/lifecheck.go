// Fixture for lifecheck: use-after-free of pooled objects and sends that
// alias a payload the kernel will reissue as a spare.
package lifecheck

import (
	"core"
	"sync"
)

type Msg struct {
	N    int
	Hops []int
}

var msgPool = sync.Pool{New: func() any { return new(Msg) }}

func newMsg() *Msg { return msgPool.Get().(*Msg) }

// useAfterPut writes through a pointer already surrendered to sync.Pool.
func useAfterPut(m *Msg) {
	msgPool.Put(m)
	m.N = 1 // want `use of m after it was freed/recycled`
}

// branchLocalFree only frees on one path; the analysis must not flag the
// common continuation.
func branchLocalFree(m *Msg, done bool) int {
	if done {
		msgPool.Put(m)
		return 0
	}
	return m.N
}

// revived rebinds the variable after the free; the new payload is live.
func revived() int {
	m := newMsg()
	msgPool.Put(m)
	m = newMsg()
	return m.N
}

// retainsInFlight wires the current event's payload into a new send; the
// kernel recycles that payload when the in-flight event dies.
func retainsInFlight(lp *core.LP, ev *core.Event) {
	m := ev.Data.(*Msg)
	lp.Send(1, 1, m) // want `retains m, the in-flight event's pooled payload`
}

// forwardsFresh copies into a fresh payload before sending: fine.
func forwardsFresh(lp *core.LP, ev *core.Event) {
	m := ev.Data.(*Msg)
	out := newMsg()
	out.N = m.N
	lp.Send(1, 1, out)
}

// doubleSend aliases one payload into two live events.
func doubleSend(lp *core.LP) {
	m := newMsg()
	lp.Send(1, 1, m)
	lp.SendSelf(2, m) // want `wired into a second send`
}

// spareOrNew is the model-side idiom: take the PE's spare payload or
// allocate, overwrite it wholly, send it once. Fine.
func spareOrNew(lp *core.LP) {
	m, ok := lp.Spare().(*Msg)
	if !ok {
		m = new(Msg)
	}
	*m = Msg{N: 1}
	lp.Send(1, 1, m)
}

// doubleSendSpare stashes one spare in two events: when both die it sits
// on the spare stack twice and is reissued to two later sends.
func doubleSendSpare(lp *core.LP) {
	m, _ := lp.Spare().(*Msg)
	lp.Send(1, 1, m)
	lp.Send(2, 1, m) // want `wired into a second send`
}

// sendTwoFresh sends distinct payloads: fine.
func sendTwoFresh(lp *core.LP) {
	a := newMsg()
	b := newMsg()
	lp.Send(1, 1, a)
	lp.Send(2, 1, b)
}

// waivedRetention documents an intentional alias.
func waivedRetention(lp *core.LP, ev *core.Event) {
	m := ev.Data.(*Msg)
	lp.Send(1, 1, m) //simlint:retained fixture: the handled event is never freed in this model, payload ownership transfers
}

// valueSend passes a non-pointer payload; copying is safe, no finding.
func valueSend(lp *core.LP) {
	v := 7
	lp.Send(1, 1, v)
	lp.Send(2, 1, v)
}
