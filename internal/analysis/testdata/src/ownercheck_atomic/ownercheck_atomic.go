// Fixture for ownercheck's atomic markers: publish ordering on
// //simlint:publishes guards, single-writer discipline on //simlint:spsc
// indexes, and the atomic-type requirement on both.
package ownercheck_atomic

import (
	"sync/atomic"

	"spscdep"
)

const laneCap = 8

type mail struct{ seq uint64 }

type lane struct {
	//simlint:spsc
	head atomic.Uint64
	//simlint:spsc
	//simlint:publishes buf
	tail atomic.Uint64
	buf  [laneCap]mail
}

// push is the producer: slot writes precede the publishing tail store,
// and push is the tail's only writer besides reset (flagged there).
func (l *lane) push(m mail) {
	t := l.tail.Load()
	l.buf[t%laneCap] = m
	l.tail.Store(t + 1)
}

// drain is the consumer: reads slots, then advances head.
func (l *lane) drain() []mail {
	var out []mail
	h := l.head.Load()
	for t := l.tail.Load(); h < t; h++ {
		out = append(out, l.buf[h%laneCap])
	}
	l.head.Store(h)
	return out
}

// reset stores both indexes from a third function: each is a
// second-writer violation.
func (l *lane) reset() {
	l.head.Store(0) // want `second writer for spsc index`
	l.tail.Store(0) // want `second writer for spsc index`
}

type cell struct {
	//simlint:publishes data
	ready atomic.Uint32
	data  int
}

// fill writes the data, then publishes: the correct order.
func fill(c *cell, v int) {
	c.data = v
	c.ready.Store(1)
}

// fillLate publishes first: the consumer can observe ready and read
// data mid-write.
func fillLate(c *cell, v int) {
	c.ready.Store(1)
	c.data = v // want `store to c.data after the ready store`
}

// fillBranch publishes inside a branch only: branch-local publishes
// stay local, so the trailing store is not flagged.
func fillBranch(c *cell, v int) {
	if v > 0 {
		c.ready.Store(1)
	}
	c.data = v
}

// fillOther publishes one cell and writes another: the (root, field)
// key keeps them apart.
func fillOther(c, d *cell, v int) {
	c.data = v
	c.ready.Store(1)
	d.data = v
}

type badGuard struct {
	//simlint:publishes payload
	flag    uint32 // want `publish guard .* must be a sync/atomic type`
	payload int
}

type badArg struct {
	//simlint:publishes nosuch
	flag    atomic.Uint32 // want `names no field of badArg`
	payload int
}

type plainIdx struct {
	//simlint:spsc
	idx uint64 // want `spsc index .* must be a sync/atomic type`
}

// pokeDep stores an spsc index from outside its declaring package.
func pokeDep(r *spscdep.Ring) {
	r.Head.Store(0) // want `spsc index .* stored outside its declaring package`
}
