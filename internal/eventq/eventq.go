// Package eventq provides the pending-event priority queues used by the
// Time Warp kernel: a binary heap, a splay tree and a ladder queue, all
// parameterised over the element type and a strict-weak-ordering
// comparison function.
//
// ROSS ships a splay tree as its default pending queue and a heap as an
// alternative; the ladder queue (Tang, Goh & Thng) is the calendar-family
// structure whose Push/Pop are amortised O(1) for the PDES access pattern
// (mostly-increasing inserts with occasional rollback re-insertions). All
// three are provided so the event-queue ablation benchmark can compare
// them under that pattern.
//
// Queues are not safe for concurrent use; each processing element owns one.
package eventq

import (
	"fmt"
	"strings"
)

// Queue is the interface the kernel schedules through. Min returns the
// smallest element without removing it; Pop removes and returns it. Both
// return the zero value and false when the queue is empty.
type Queue[T any] interface {
	Push(T)
	Min() (T, bool)
	Pop() (T, bool)
	Len() int
	// Each visits every element in unspecified order; used by the
	// kernel's invariant checker and by diagnostics. The queue must not
	// be mutated during the visit.
	Each(func(T))
}

// BulkDrainer is optionally implemented by queues that can pop an entire
// prefix cheaply. BulkDrain removes every element comparing strictly
// before upTo, in exactly Pop order, calling fn on each as it is removed.
// fn may Push new elements, provided every pushed element compares
// strictly after the element just delivered (the kernel's causality rule:
// sends carry strictly positive delays); pushed elements still below upTo
// are delivered later in the same drain. The ladder implements this
// without per-element rebalancing — delivery walks the sorted Bottom run,
// refilling it bucket-at-a-time; a comparison-based queue gains nothing,
// so heap and splay rely on the Drain fallback instead.
type BulkDrainer[T any] interface {
	BulkDrain(upTo T, fn func(T))
}

// Drain pops every element of q comparing strictly before upTo (under
// less, which must be q's own ordering), in Pop order, calling fn on each.
// Queues implementing BulkDrainer take their fast path; anything else
// falls back to an equivalent Min/Pop loop. fn may Push, under the
// BulkDrainer contract.
func Drain[T any](q Queue[T], upTo T, less func(a, b T) bool, fn func(T)) {
	if bd, ok := q.(BulkDrainer[T]); ok {
		bd.BulkDrain(upTo, fn)
		return
	}
	for {
		v, ok := q.Min()
		if !ok || !less(v, upTo) {
			return
		}
		q.Pop()
		fn(v)
	}
}

// DefaultKind is the queue an empty kind name selects: the ladder, the
// calendar-family structure with amortised O(1) Push/Pop on the PDES access
// pattern. It is the one default for every engine and every CLI -queue flag.
const DefaultKind = "ladder"

// kindSpec is one registry entry; registry is the single place a queue
// kind is declared — Kinds, Valid and New all derive from it, so adding a
// kind is exactly one edit here.
type kindSpec[T any] struct {
	name string
	// needsKey marks kinds whose constructor requires the key projection
	// (calendar-family structures bucket by a numeric key; comparison-only
	// kinds ignore it).
	needsKey bool
	build    func(less func(a, b T) bool, key func(T) float64) Queue[T]
}

func registry[T any]() []kindSpec[T] {
	return []kindSpec[T]{
		{name: "heap", build: func(less func(a, b T) bool, _ func(T) float64) Queue[T] { return NewHeap(less) }},
		{name: "ladder", needsKey: true, build: func(less func(a, b T) bool, key func(T) float64) Queue[T] { return NewLadder(less, key) }},
		{name: "splay", build: func(less func(a, b T) bool, _ func(T) float64) Queue[T] { return NewSplay(less) }},
	}
}

// Kinds returns the registered queue kinds in registry order.
func Kinds() []string {
	specs := registry[struct{}]()
	names := make([]string, len(specs))
	for i, s := range specs {
		names[i] = s.name
	}
	return names
}

// Valid reports whether kind names a registered queue (or is empty, which
// selects DefaultKind); the error enumerates the valid kinds.
func Valid(kind string) error {
	if kind == "" {
		return nil
	}
	for _, s := range registry[struct{}]() {
		if s.name == kind {
			return nil
		}
	}
	return fmt.Errorf("eventq: unknown queue kind %q (valid: %s)", kind, strings.Join(Kinds(), ", "))
}

// New returns a queue of the named kind, defaulting to DefaultKind for an
// empty name. key projects an element to the numeric priority the
// calendar-family kinds bucket by; it must be monotone with respect to
// less (key(a) < key(b) implies less(a, b)) and may be nil for kinds that
// only compare — asking for a kind that needs it without one is an error.
func New[T any](kind string, less func(a, b T) bool, key func(T) float64) (Queue[T], error) {
	if kind == "" {
		kind = DefaultKind
	}
	for _, s := range registry[T]() {
		if s.name != kind {
			continue
		}
		if s.needsKey && key == nil {
			return nil, fmt.Errorf("eventq: queue kind %q requires a key projection", kind)
		}
		return s.build(less, key), nil
	}
	return nil, Valid(kind)
}

// Heap is a classic array-backed binary min-heap. Elements comparing equal
// pop in an order that is a pure function of the operation sequence — two
// runs issuing identical Push/Pop sequences drain identically — but NOT
// insertion order: sift-up and sift-down stop at equal elements, so a
// rollback re-insertion can overtake an older equal. The kernel is immune
// by construction (its comparator — recvTime, then destination, source and
// sequence number — is a total order, so equal elements never occur), but
// model-level users with partial keys must not read FIFO semantics into
// ties; use the splay tree if insertion order among equals matters.
type Heap[T any] struct {
	less  func(a, b T) bool
	items []T
}

// NewHeap returns an empty heap ordered by less.
func NewHeap[T any](less func(a, b T) bool) *Heap[T] {
	return &Heap[T]{less: less}
}

// Len returns the number of elements in the heap.
func (h *Heap[T]) Len() int { return len(h.items) }

// Push inserts v.
func (h *Heap[T]) Push(v T) {
	h.items = append(h.items, v)
	h.up(len(h.items) - 1)
}

// Min returns the smallest element without removing it.
func (h *Heap[T]) Min() (T, bool) {
	if len(h.items) == 0 {
		var zero T
		return zero, false
	}
	return h.items[0], true
}

// Pop removes and returns the smallest element.
func (h *Heap[T]) Pop() (T, bool) {
	if len(h.items) == 0 {
		var zero T
		return zero, false
	}
	top := h.items[0]
	last := len(h.items) - 1
	h.items[0] = h.items[last]
	var zero T
	h.items[last] = zero // release reference for GC
	h.items = h.items[:last]
	if last > 0 {
		h.down(0)
	}
	return top, true
}

// Each visits every element in array order.
func (h *Heap[T]) Each(fn func(T)) {
	for _, v := range h.items {
		fn(v)
	}
}

func (h *Heap[T]) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(h.items[i], h.items[parent]) {
			return
		}
		h.items[i], h.items[parent] = h.items[parent], h.items[i]
		i = parent
	}
}

func (h *Heap[T]) down(i int) {
	n := len(h.items)
	for {
		left := 2*i + 1
		if left >= n {
			return
		}
		smallest := left
		if right := left + 1; right < n && h.less(h.items[right], h.items[left]) {
			smallest = right
		}
		if !h.less(h.items[smallest], h.items[i]) {
			return
		}
		h.items[i], h.items[smallest] = h.items[smallest], h.items[i]
		i = smallest
	}
}

// Splay is a bottom-less top-down splay tree keyed by the comparison
// function. Equal elements are permitted; an element inserted equal to
// existing ones lands after ALL of them, so Pop returns equal elements in
// insertion order — FIFO ties. The kernel does not rely on this (its
// comparator is a total order, so ties never occur there), but models and
// tests with partial keys get a contract they can reason about.
type Splay[T any] struct {
	less func(a, b T) bool
	root *splayNode[T]
	n    int
}

type splayNode[T any] struct {
	v           T
	left, right *splayNode[T]
}

// NewSplay returns an empty splay tree ordered by less.
func NewSplay[T any](less func(a, b T) bool) *Splay[T] {
	return &Splay[T]{less: less}
}

// Len returns the number of elements in the tree.
func (s *Splay[T]) Len() int { return s.n }

// splay reorganises the tree so that the node closest to v (by the tree's
// ordering) becomes the root. Standard top-down splay, except that the
// search treats an element equal to v as smaller and keeps descending
// right. That guarantee is what makes Push's tie contract hold: after the
// splay, every element <= v (equals included) sits in the root's left
// spine or at the root itself, so the caller can splice a new equal node
// in after ALL existing equals, not merely after whichever equal the
// search happened to reach first.
func (s *Splay[T]) splay(v T) {
	if s.root == nil {
		return
	}
	var header splayNode[T]
	l, r := &header, &header
	t := s.root
	for {
		if s.less(v, t.v) {
			if t.left == nil {
				break
			}
			if s.less(v, t.left.v) { // rotate right
				y := t.left
				t.left = y.right
				y.right = t
				t = y
				if t.left == nil {
					break
				}
			}
			r.left = t // link right
			r = t
			t = t.left
		} else { // t.v <= v: equals descend right too
			if t.right == nil {
				break
			}
			if !s.less(v, t.right.v) { // rotate left
				y := t.right
				t.right = y.left
				y.left = t
				t = y
				if t.right == nil {
					break
				}
			}
			l.right = t // link left
			l = t
			t = t.right
		}
	}
	l.right = t.left
	r.left = t.right
	t.left = header.right
	t.right = header.left
	s.root = t
}

// Push inserts v.
func (s *Splay[T]) Push(v T) {
	n := &splayNode[T]{v: v}
	if s.root == nil {
		s.root = n
		s.n = 1
		return
	}
	s.splay(v)
	if s.less(v, s.root.v) {
		n.left = s.root.left
		n.right = s.root
		s.root.left = nil
	} else {
		n.right = s.root.right
		n.left = s.root
		s.root.right = nil
	}
	s.root = n
	s.n++
}

// splayMin brings the minimum element to the root using zig/zig-zig
// rotations down the left spine, halving the spine per pass (semi-splay),
// which preserves the amortised O(log n) bound.
func (s *Splay[T]) splayMin() {
	t := s.root
	for t != nil && t.left != nil {
		l := t.left
		if l.left != nil {
			// zig-zig: rotate l above t, then l.left above l.
			t.left = l.right
			l.right = t
			ll := l.left
			l.left = ll.right
			ll.right = l
			t = ll
		} else {
			// zig: single rotation.
			t.left = l.right
			l.right = t
			t = l
		}
	}
	s.root = t
}

// Min returns the smallest element without removing it.
func (s *Splay[T]) Min() (T, bool) {
	if s.root == nil {
		var zero T
		return zero, false
	}
	s.splayMin()
	return s.root.v, true
}

// Each visits every element in-order (ascending).
func (s *Splay[T]) Each(fn func(T)) {
	var walk func(n *splayNode[T])
	walk = func(n *splayNode[T]) {
		if n == nil {
			return
		}
		walk(n.left)
		fn(n.v)
		walk(n.right)
	}
	walk(s.root)
}

// Pop removes and returns the smallest element.
func (s *Splay[T]) Pop() (T, bool) {
	if s.root == nil {
		var zero T
		return zero, false
	}
	s.splayMin()
	v := s.root.v
	s.root = s.root.right
	s.n--
	return v, true
}
