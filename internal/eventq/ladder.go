// Package eventq provides the pending-event list of the Time Warp
// kernel: a ladder queue parameterised over the element type, a
// strict-weak-ordering comparison function and a key projection monotone
// with respect to it.
//
// The ladder queue (Tang, Goh & Thng) is the calendar-family structure
// whose Push/Pop are amortised O(1) for the PDES access pattern (mostly
// increasing inserts with occasional rollback re-insertions). Every engine
// holds one per PE and drains it with BulkDrain. It won the pending-queue
// ablation against a binary heap and ROSS's splay tree (EXPERIMENTS.md),
// so it is the only implementation; FuzzQueuesDifferential holds it to a
// sorted-slice reference model.
//
// A Ladder is not safe for concurrent use; each processing element owns
// one.
package eventq

import "math"

// Ladder is a ladder queue (Tang, Goh & Thng, "Ladder queue: An O(1)
// priority queue structure for large-scale discrete event simulation",
// ACM TOMACS 2005): a three-band structure tuned for the PDES access
// pattern where almost every Push lands at or above the current drain
// frontier.
//
//   - Top: an unsorted spill array holding every element whose key
//     arrived at or above topStart. Pushes here are O(1) appends.
//   - Rungs: a short stack of bucket arrays. Each rung covers a key
//     range [start, start+width*nbuckets) at a fixed bucket width; an
//     overfull bucket is split by spawning a finer-grained child rung
//     below it, so sorting cost is deferred until a range is actually
//     about to drain.
//   - Bottom: a fully sorted run (smallest first) that Min/Pop serve
//     from directly. When it empties it is refilled from the innermost
//     rung's next bucket, and when the rungs empty the Top band is
//     transferred down wholesale.
//
// Ordering contract: the ladder buckets by key but ORDERS by less, so
// drain order is exactly the sorted order under less and is a pure
// function of the Push/Pop sequence — identical op sequences drain
// identically. Elements comparing equal under less pop in insertion
// order (FIFO ties): bucket lists keep
// arrival order, the refill sorts are stable, and an element pushed
// equal to elements already in the sorted Bottom is inserted after all
// of them. This requires key to be monotone with respect to less
// (key(a) < key(b) implies less(a, b)); the kernel's projection —
// recvTime under the (recvTime, dst, src, seq) comparator — satisfies
// it, as does any "timestamp first" ordering.
//
// Steady-state operation allocates nothing. Bucket contents live as
// linked lists in one arena shared by every bucket of every rung
// (parallel vals/next arrays threaded with a free list), so recycled
// capacity is pooled: the arena plateaus at the high-water count of
// rung-resident elements. Giving each bucket its own recycled slice
// instead would never stop allocating — with thousands of buckets
// refilled from random occupancy, some bucket somewhere keeps setting a
// new per-slot capacity record more or less forever. The Top/Bottom
// arrays, rung bucket tables, and the merge scratch are recycled in
// place the ordinary way. Non-finite keys (the kernel's TimeInfinity
// projects to +Inf) cap into the last bucket and are ordered by the
// drain-time sort, never by degenerate bucket arithmetic.
type Ladder[T any] struct {
	less func(a, b T) bool
	key  func(T) float64
	n    int

	// bottom[bhead:] is the sorted run Min/Pop serve from; bhead is the
	// consumed prefix, kept so Pop is a pointer bump instead of a copy.
	bottom []T
	bhead  int

	// rungs[:nrungs] is the active rung stack, outermost (widest range)
	// first. Retired rungs keep their bucket tables for reuse.
	rungs  []*ladderRung[T]
	nrungs int

	// top is the unsorted spill band for keys >= topStart; topMin/topMax
	// track its key range so a transfer can size rung 0 without a scan.
	top      []T
	topMin   float64
	topMax   float64
	topStart float64

	// Shared bucket arena: arenaVals[s] holds an element, arenaNext[s]
	// the next slot in its bucket's list (-1 ends it). Free slots are
	// threaded through arenaNext from arenaFree. The arena is owned by
	// the PE goroutine running the queue: a recycled slot is reissued on
	// the next Push, so any cross-goroutine reference is a use-after-free.
	arenaVals []T     //simlint:owned
	arenaNext []int32 //simlint:owned
	arenaFree int32   //simlint:owned

	scratch []T // merge-sort scratch, recycled across sorts
}

// ladderRung is one bucket table. Bucket i covers keys in
// [start+i*width, start+(i+1)*width) and stores its elements as an
// arena-linked FIFO list from head[i] to tail[i] (-1 when empty); cur is
// the first bucket not yet drained, count the elements across
// buckets[cur:].
type ladderRung[T any] struct {
	start float64
	width float64
	cur   int
	count int
	head  []int32
	tail  []int32
}

const (
	// ladderBottomThreshold caps how many elements are sorted into
	// Bottom in one refill; a bucket above it spawns a finer rung
	// instead (the paper's THRES).
	ladderBottomThreshold = 64
	// ladderMaxRungs bounds spawn recursion; at the cap the bucket is
	// sorted into Bottom regardless of size, degrading gracefully to
	// O(n log n) for pathological (all-equal-key) distributions.
	ladderMaxRungs = 8
	// ladderMaxBuckets caps a rung's bucket count so a sparse band with
	// a huge key range cannot demand an enormous bucket table.
	ladderMaxBuckets = 2048
)

// NewLadder returns an empty ladder queue ordered by less, bucketing by
// key. key must be monotone with respect to less: key(a) < key(b) must
// imply less(a, b).
func NewLadder[T any](less func(a, b T) bool, key func(T) float64) *Ladder[T] {
	return &Ladder[T]{
		less:      less,
		key:       key,
		topMin:    math.Inf(1),
		topMax:    math.Inf(-1),
		topStart:  math.Inf(-1),
		arenaFree: -1,
	}
}

// Len returns the number of elements in the queue.
func (l *Ladder[T]) Len() int { return l.n }

// Push inserts v. The common PDES case — key at or above everything
// already drained and pending — is an O(1) append to Top; a rollback
// re-insertion lands in the rung bucket or sorted Bottom covering its
// key.
func (l *Ladder[T]) Push(v T) {
	l.n++
	k := l.key(v)
	if k >= l.topStart {
		l.top = append(l.top, v)
		if k < l.topMin {
			l.topMin = k
		}
		if k > l.topMax {
			l.topMax = k
		}
		return
	}
	// Below the Top band: the outermost rung whose undrained bucket
	// range covers k takes it. Inner rungs subdivide a bucket their
	// parent has already drained past, so their entire key range sits
	// strictly below every undrained parent bucket — the first match is
	// the right one, and an element matching no rung belongs in Bottom.
	for i := 0; i < l.nrungs; i++ {
		r := l.rungs[i]
		if k < r.start {
			continue
		}
		if idx := r.idxOf(k); idx >= r.cur {
			l.putRung(r, idx, v)
			return
		}
	}
	l.insertBottom(v)
}

// idxOf maps key k (>= r.start) to its bucket index. This is the ONLY
// arithmetic that bins a key — Push's membership test reuses it — and
// floating-point division is monotone, so for any two keys a < b,
// idxOf(a) <= idxOf(b): a later-delivered bucket can never hold a
// smaller key than an earlier one, regardless of rounding at bucket
// boundaries. Oversized and +Inf keys cap into the last bucket, where
// the drain-time sort orders them.
func (r *ladderRung[T]) idxOf(k float64) int {
	if math.IsInf(k, 1) {
		return len(r.head) - 1
	}
	idx := int((k - r.start) / r.width)
	if idx >= len(r.head) {
		idx = len(r.head) - 1
	}
	if idx < 0 {
		idx = 0
	}
	return idx
}

// allocSlot takes an arena slot for v, growing the arena only past its
// high-water mark.
func (l *Ladder[T]) allocSlot(v T) int32 {
	s := l.arenaFree
	if s >= 0 {
		l.arenaFree = l.arenaNext[s]
	} else {
		s = int32(len(l.arenaVals))
		var zero T
		l.arenaVals = append(l.arenaVals, zero)
		l.arenaNext = append(l.arenaNext, -1)
	}
	l.arenaVals[s] = v
	l.arenaNext[s] = -1
	return s
}

// freeSlot releases s back to the arena free list, dropping its element
// reference for GC.
func (l *Ladder[T]) freeSlot(s int32) {
	var zero T
	l.arenaVals[s] = zero
	l.arenaNext[s] = l.arenaFree
	l.arenaFree = s
}

// putRung appends v to bucket idx of r, preserving arrival order.
func (l *Ladder[T]) putRung(r *ladderRung[T], idx int, v T) {
	s := l.allocSlot(v)
	if t := r.tail[idx]; t >= 0 {
		l.arenaNext[t] = s
	} else {
		r.head[idx] = s
	}
	r.tail[idx] = s
	r.count++
}

// Min returns the smallest element without removing it, or the zero
// value and false when the queue is empty.
func (l *Ladder[T]) Min() (T, bool) {
	if l.n == 0 {
		var zero T
		return zero, false
	}
	l.ensureBottom()
	return l.bottom[l.bhead], true
}

// Pop removes and returns the smallest element, or the zero value and
// false when the queue is empty.
func (l *Ladder[T]) Pop() (T, bool) {
	if l.n == 0 {
		var zero T
		return zero, false
	}
	l.ensureBottom()
	v := l.bottom[l.bhead]
	var zero T
	l.bottom[l.bhead] = zero // release reference for GC
	l.bhead++
	l.n--
	if l.n == 0 {
		l.reset()
	}
	return v, true
}

// BulkDrain removes every element comparing strictly before upTo, in
// Pop order, calling fn on each. fn may Push elements that compare
// strictly after the delivered element (the kernel's causality rule:
// sends carry strictly positive delays); any still below upTo are
// delivered later in the same call. The drain walks sorted Bottom runs
// directly, so a delivery is a slot read and a head bump; sorting is paid
// once per refilled bucket.
func (l *Ladder[T]) BulkDrain(upTo T, fn func(T)) {
	for l.n > 0 {
		l.ensureBottom()
		v := l.bottom[l.bhead]
		if !l.less(v, upTo) {
			return
		}
		var zero T
		l.bottom[l.bhead] = zero
		l.bhead++
		l.n--
		if l.n == 0 {
			l.reset()
		}
		fn(v)
	}
}

// Each visits every element in unspecified order; the kernel's invariant
// checker and checkpoint capture use it. The queue must not be mutated
// during the visit.
func (l *Ladder[T]) Each(fn func(T)) {
	for _, v := range l.bottom[l.bhead:] {
		fn(v)
	}
	for i := 0; i < l.nrungs; i++ {
		r := l.rungs[i]
		for bi := r.cur; bi < len(r.head); bi++ {
			for s := r.head[bi]; s >= 0; s = l.arenaNext[s] {
				fn(l.arenaVals[s])
			}
		}
	}
	for _, v := range l.top {
		fn(v)
	}
}

// ensureBottom makes bottom[bhead:] non-empty (caller guarantees n > 0),
// refilling from the innermost rung or transferring the Top band.
func (l *Ladder[T]) ensureBottom() {
	for l.bhead >= len(l.bottom) {
		l.bottom = l.bottom[:0]
		l.bhead = 0
		if l.nrungs > 0 {
			l.refillFromRungs()
		} else {
			l.transferTop()
		}
	}
}

// refillFromRungs moves the innermost rung's next non-empty bucket into
// Bottom (sorted) or spawns a finer child rung when the bucket is too
// big to sort cheaply.
func (l *Ladder[T]) refillFromRungs() {
	r := l.rungs[l.nrungs-1]
	if r.count == 0 {
		l.nrungs-- // retired; keeps its bucket table for reuse
		return
	}
	for r.cur < len(r.head) && r.head[r.cur] < 0 {
		r.cur++
	}
	if r.cur >= len(r.head) {
		// count said elements remain but no bucket holds any; guard
		// against an inconsistent rung rather than loop forever.
		r.count = 0
		l.nrungs--
		return
	}
	// Walk the bucket once for its size and key range; both the spawn
	// decision and the child sizing need them.
	bn := 0
	bmin, bmax := math.Inf(1), math.Inf(-1)
	for s := r.head[r.cur]; s >= 0; s = l.arenaNext[s] {
		bn++
		k := l.key(l.arenaVals[s])
		if k < bmin {
			bmin = k
		}
		if k > bmax {
			bmax = k
		}
	}
	if bn > ladderBottomThreshold && l.nrungs < ladderMaxRungs {
		if child, ok := l.takeChildRung(bn, bmin, bmax); ok {
			// Rescatter the bucket into the child. Freeing each slot
			// before re-placing its element means the child's list
			// reuses the same arena slots — no net arena growth.
			for s := r.head[r.cur]; s >= 0; {
				v := l.arenaVals[s]
				next := l.arenaNext[s]
				l.freeSlot(s)
				l.putRung(child, child.idxOf(l.key(v)), v)
				s = next
			}
			r.head[r.cur] = -1
			r.tail[r.cur] = -1
			r.count -= bn
			r.cur++
			l.pushRung(child)
			return
		}
	}
	for s := r.head[r.cur]; s >= 0; {
		v := l.arenaVals[s]
		next := l.arenaNext[s]
		l.freeSlot(s)
		l.bottom = append(l.bottom, v)
		s = next
	}
	l.stableSort(l.bottom)
	r.head[r.cur] = -1
	r.tail[r.cur] = -1
	r.count -= bn
	r.cur++
	if r.count == 0 {
		l.nrungs--
	}
}

// takeChildRung prepares a recycled (or new) rung subdividing the key
// range [bmin, bmax] for bn elements. Returns ok=false when subdividing
// cannot help: the keys are all equal, or the bucket width would be
// non-finite or zero (sorting into Bottom is then the right
// degradation).
func (l *Ladder[T]) takeChildRung(bn int, bmin, bmax float64) (*ladderRung[T], bool) {
	if !(bmax > bmin) || math.IsInf(bmin, 0) || math.IsInf(bmax, 0) {
		return nil, false
	}
	nb := bn
	if nb > ladderMaxBuckets {
		nb = ladderMaxBuckets
	}
	if nb < 2 {
		return nil, false
	}
	// Spread the actual key range across nb buckets; the +1 ulp via
	// Nextafter keeps bmax itself inside the last bucket.
	cw := math.Nextafter(bmax-bmin, math.Inf(1)) / float64(nb)
	if cw <= 0 || math.IsInf(cw, 0) || math.IsNaN(cw) {
		return nil, false
	}
	r := l.takeRung(nb)
	r.start = bmin
	r.width = cw
	return r, true
}

// takeRung returns a recycled (or new) rung with nb empty buckets.
func (l *Ladder[T]) takeRung(nb int) *ladderRung[T] {
	var r *ladderRung[T]
	if l.nrungs < len(l.rungs) && l.rungs[l.nrungs] != nil {
		r = l.rungs[l.nrungs]
	} else {
		r = &ladderRung[T]{}
	}
	r.cur = 0
	r.count = 0
	if cap(r.head) < nb {
		r.head = make([]int32, nb)
		r.tail = make([]int32, nb)
	}
	r.head = r.head[:nb]
	r.tail = r.tail[:nb]
	for i := range r.head {
		r.head[i] = -1
		r.tail[i] = -1
	}
	return r
}

// pushRung activates r as the new innermost rung.
func (l *Ladder[T]) pushRung(r *ladderRung[T]) {
	if l.nrungs < len(l.rungs) {
		l.rungs[l.nrungs] = r
	} else {
		l.rungs = append(l.rungs, r)
	}
	l.nrungs++
}

// transferTop moves the Top band down: small or degenerate bands sort
// straight into Bottom; otherwise rung 0 is sized from the observed key
// range and the band is scattered into its buckets.
func (l *Ladder[T]) transferTop() {
	n := len(l.top)
	if n == 0 {
		return
	}
	// Future pushes strictly above the band's max stay O(1) in the new
	// Top. The boundary must be exclusive: keys equal to topMax are moving
	// down right now, and a later arrival at the same key may sort before
	// them under less (the kernel tiebreaks equal timestamps by lp/seq),
	// which only works if it lands in the same container and gets compared.
	// Nextafter makes membership k >= topStart equivalent to k > topMax.
	// (For topMax == +Inf this is saturating: +Inf keys keep landing in
	// Top, where FIFO among them is the best we can offer.)
	l.topStart = math.Nextafter(l.topMax, math.Inf(1))
	var r *ladderRung[T]
	ok := false
	if n > ladderBottomThreshold {
		r, ok = l.takeChildRung(n, l.topMin, l.topMax)
	}
	if ok {
		for _, v := range l.top {
			l.putRung(r, r.idxOf(l.key(v)), v)
		}
		l.pushRung(r)
	} else {
		l.bottom = append(l.bottom, l.top...)
		l.stableSort(l.bottom)
	}
	clearSlice(l.top)
	l.top = l.top[:0]
	l.topMin = math.Inf(1)
	l.topMax = math.Inf(-1)
}

// insertBottom places v into the sorted Bottom run, after all equal
// elements (FIFO ties). The dead slot just before bhead is reused for a
// front insertion when one exists; appending at capacity first compacts
// the consumed prefix away so the array cannot grow without bound under
// insert/pop interleaving.
func (l *Ladder[T]) insertBottom(v T) {
	// Binary search for the upper bound: first index with v < bottom[i].
	lo, hi := l.bhead, len(l.bottom)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if l.less(v, l.bottom[mid]) {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	if lo == l.bhead && l.bhead > 0 {
		l.bhead--
		l.bottom[l.bhead] = v
		return
	}
	if len(l.bottom) == cap(l.bottom) && l.bhead > 0 {
		m := copy(l.bottom, l.bottom[l.bhead:])
		clearSlice(l.bottom[m:])
		l.bottom = l.bottom[:m]
		lo -= l.bhead
		l.bhead = 0
	}
	var zero T
	l.bottom = append(l.bottom, zero)
	copy(l.bottom[lo+1:], l.bottom[lo:])
	l.bottom[lo] = v
}

// reset returns the empty ladder to its initial band state, keeping
// every array's capacity (and the arena) for reuse. The caller
// guarantees n == 0, so every arena slot is already on the free list
// and every bucket list is empty.
func (l *Ladder[T]) reset() {
	clearSlice(l.bottom)
	l.bottom = l.bottom[:0]
	l.bhead = 0
	l.nrungs = 0
	clearSlice(l.top)
	l.top = l.top[:0]
	l.topMin = math.Inf(1)
	l.topMax = math.Inf(-1)
	l.topStart = math.Inf(-1)
}

// stableSort sorts s in place under l.less, preserving the relative
// order of equal elements. Hand-rolled (insertion sort for short runs,
// bottom-up merge above that) because sort.SliceStable allocates its
// closure header on every call, which would show up in the steady-state
// allocs/op gate.
func (l *Ladder[T]) stableSort(s []T) {
	n := len(s)
	if n < 2 {
		return
	}
	const runLen = 24
	if n <= runLen {
		insertionSort(s, l.less)
		return
	}
	for lo := 0; lo < n; lo += runLen {
		hi := lo + runLen
		if hi > n {
			hi = n
		}
		insertionSort(s[lo:hi], l.less)
	}
	if cap(l.scratch) < n {
		l.scratch = make([]T, n)
	}
	scratch := l.scratch[:n]
	for width := runLen; width < n; width *= 2 {
		for lo := 0; lo+width < n; lo += 2 * width {
			mid := lo + width
			hi := lo + 2*width
			if hi > n {
				hi = n
			}
			mergeRuns(s[lo:mid], s[mid:hi], scratch, l.less)
		}
	}
	clearSlice(scratch)
}

func insertionSort[T any](s []T, less func(a, b T) bool) {
	for i := 1; i < len(s); i++ {
		v := s[i]
		j := i - 1
		for j >= 0 && less(v, s[j]) {
			s[j+1] = s[j]
			j--
		}
		s[j+1] = v
	}
}

// mergeRuns merges the adjacent sorted runs a and b (b immediately
// follows a in the backing array) using scratch, ties taking from a so
// the merge is stable.
func mergeRuns[T any](a, b, scratch []T, less func(x, y T) bool) {
	tmp := scratch[:len(a)]
	copy(tmp, a)
	out := a[:len(a)+len(b)]
	i, j, k := 0, 0, 0
	for i < len(tmp) && j < len(b) {
		if less(b[j], tmp[i]) {
			out[k] = b[j]
			j++
		} else {
			out[k] = tmp[i]
			i++
		}
		k++
	}
	for i < len(tmp) {
		out[k] = tmp[i]
		i++
		k++
	}
	// Remaining b elements are already in place.
}

// clearSlice zeroes s so recycled arrays hold no stale references.
func clearSlice[T any](s []T) {
	var zero T
	for i := range s {
		s[i] = zero
	}
}
