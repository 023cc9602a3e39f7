// Fixture dependency for ownercheck's spsc marker: the exported index
// lets the importing fixture exercise cross-package spscFact flow.
package spscdep

import "sync/atomic"

type Ring struct {
	//simlint:spsc
	Head atomic.Uint64
}

// Advance is the consumer, the index's single writer.
func (r *Ring) Advance(h uint64) { r.Head.Store(h) }
