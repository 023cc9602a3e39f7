// Package core is a minimal stand-in for the real kernel package. The
// simlint analyzers recognise kernel types by name and shape (a package
// named "core" exposing LP, Event, Send, ...), so fixtures built against
// this stub exercise exactly the code paths the real tree does, without
// the fixture tree depending on the module.
package core

type Time float64

type LPID int32

// Event mirrors the kernel event: Data carries the model payload.
type Event struct {
	Data any
}

// LP mirrors the kernel logical process: State holds the model state.
type LP struct {
	State any
}

func (lp *LP) Send(dst LPID, delay Time, data any) *Event {
	return &Event{Data: data}
}

func (lp *LP) SendSelf(delay Time, data any) *Event {
	return &Event{Data: data}
}

// Spare mirrors the kernel's spare-payload pop.
func (lp *LP) Spare() any { return nil }

// Rand stands in for the LP's reversible random stream.
func (lp *LP) Rand() uint64 { return 4 }
