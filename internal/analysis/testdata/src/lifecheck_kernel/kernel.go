// Kernel-side lifecheck fixture. The event free list's entry points
// (eventPool.put, PE.free) are unexported, so only code in a
// package named core can call them — this fixture therefore declares
// package core, exactly how the analyzers see the real kernel.
package core

type LP struct{ State any }

type Event struct {
	Data any
	next *Event
}

type eventPool struct{ free *Event }

func (p *eventPool) get() *Event {
	if ev := p.free; ev != nil {
		p.free = ev.next
		return ev
	}
	return new(Event)
}

func (p *eventPool) put(ev *Event) {
	ev.next = p.free
	p.free = ev
}

type PE struct{ pool eventPool }

func (pe *PE) free(ev *Event) { pe.pool.put(ev) }

func (pe *PE) badPut(ev *Event) {
	pe.pool.put(ev)
	ev.Data = nil // want `use of ev after it was freed/recycled`
}

func (pe *PE) badFree(ev *Event) {
	pe.free(ev)
	_ = ev.Data // want `use of ev after it was freed/recycled`
}

func (pe *PE) doubleFree(ev *Event) {
	pe.pool.put(ev)
	pe.pool.put(ev) // want `use of ev after it was freed/recycled`
}

func (pe *PE) okOrder(ev *Event) {
	_ = ev.Data
	pe.free(ev)
}

func (pe *PE) waived(ev *Event) {
	pe.free(ev)
	_ = ev.Data //simlint:retained fixture: diagnostic peek at a just-pooled event
}
