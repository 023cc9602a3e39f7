// Package core is a minimal stand-in for the real kernel package. The
// simlint analyzers recognise kernel types by name and shape (a package
// named "core" exposing LP and Event), so fixtures built against
// this stub exercise exactly the code paths the real tree does, without
// the fixture tree depending on the module.
package core

// Event mirrors the kernel event: Data carries the model payload.
type Event struct {
	Data any
}

// LP mirrors the kernel logical process: State holds the model state.
type LP struct {
	State any
}

// Rand stands in for the LP's reversible random stream.
func (lp *LP) Rand() uint64 { return 4 }
