// Package trace records committed events for debugging and analysis.
//
// Optimistic execution makes printf-debugging misleading: Forward runs
// speculatively and may be rolled back, so anything it logs can describe
// events that "never happened". The Recorder solves this by hooking the
// commit path — an event is recorded only once it is irrevocably in the
// past — and by sorting the dump into the kernel's deterministic event
// order, so a parallel run's trace is byte-identical to the sequential
// run's.
//
// Usage:
//
//	rec := trace.NewRecorder(100000)
//	sim.ForEachLP(func(lp *core.LP) {
//	    lp.Handler = trace.Wrap(model, rec, trace.DescribeData)
//	})
//	...
//	rec.Dump(os.Stdout)
package trace

import (
	"fmt"
	"io"
	"math"
	"sort"
	"sync"

	"repro/internal/core"
)

// Record is one committed event.
type Record struct {
	T    core.Time
	Dst  core.LPID
	Src  core.LPID
	Note string
}

// Describe renders an event into the Record's Note field at commit time.
type Describe func(lp *core.LP, ev *core.Event) string

// DescribeData is the default describer: the payload's %v rendering.
func DescribeData(lp *core.LP, ev *core.Event) string {
	return fmt.Sprintf("%v", ev.Data)
}

// Recorder accumulates committed-event records. It is safe for concurrent
// use: commits arrive from every PE goroutine.
type Recorder struct {
	mu      sync.Mutex
	records []Record
	limit   int
	dropped int64

	// Seeded prefix (SeedPrefix): a checkpoint-resumed run records only
	// commits at or beyond the checkpoint's GVT, so the recorder folds its
	// hashes from the checkpointed prefix digests instead of the FNV offset
	// basis, and Len counts the prefix records it never saw.
	seeded     bool
	prefixLen  int
	prefixHash uint64
	prefixLP   []uint64
}

// NewRecorder returns a recorder holding at most limit records (0 means
// unbounded). Once full it counts drops rather than growing.
func NewRecorder(limit int) *Recorder {
	return &Recorder{limit: limit}
}

func (r *Recorder) add(rec Record) {
	r.mu.Lock()
	if r.limit > 0 && len(r.records) >= r.limit {
		r.dropped++
	} else {
		r.records = append(r.records, rec)
	}
	r.mu.Unlock()
}

// SeedPrefix primes an empty recorder with the digests of a committed
// trace prefix it will never observe — the below-GVT prefix a checkpoint
// captured. Every record added afterwards must sort at or after the whole
// prefix (checkpoint resume guarantees it: resumed commits all have
// T >= the checkpoint's GVT), so Hash, LPHashes and PrefixHashes remain
// exact fold continuations of the uninterrupted run's values, and Len
// counts prefix records as held. PrefixHashes stays valid only for
// horizons at or beyond the prefix's own horizon — earlier horizons would
// have to split the prefix, which only its original recorder could do.
func (r *Recorder) SeedPrefix(length int, hash uint64, lpHashes []uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.seeded || len(r.records) > 0 || r.dropped > 0 {
		panic("trace: SeedPrefix on a non-empty recorder")
	}
	r.seeded = true
	r.prefixLen = length
	r.prefixHash = hash
	r.prefixLP = append([]uint64(nil), lpHashes...)
}

// hashBasis returns the starting fold value for whole-trace hashes.
func (r *Recorder) hashBasis() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.seeded {
		return r.prefixHash
	}
	return fnvOffset
}

// lpBasis returns LP i's starting fold value.
func (r *Recorder) lpBasis(i int) uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.seeded && i < len(r.prefixLP) {
		return r.prefixLP[i]
	}
	return fnvOffset
}

// Len returns the number of records held, including a seeded prefix's.
func (r *Recorder) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.records) + r.prefixLen
}

// Dropped returns how many commits exceeded the limit.
func (r *Recorder) Dropped() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.dropped
}

// Records returns a copy of the records sorted into the kernel's event
// order (time, destination, source) — the order a sequential run commits.
func (r *Recorder) Records() []Record {
	r.mu.Lock()
	out := make([]Record, len(r.records))
	copy(out, r.records)
	r.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.T != b.T {
			return a.T < b.T
		}
		if a.Dst != b.Dst {
			return a.Dst < b.Dst
		}
		return a.Src < b.Src
	})
	return out
}

// FNV-1a, inlined so per-LP hashing needs no allocation per record.
const (
	fnvOffset uint64 = 14695981039346656037
	fnvPrime  uint64 = 1099511628211
)

func fnvByte(h uint64, b byte) uint64 {
	return (h ^ uint64(b)) * fnvPrime
}

func fnvUint64(h, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h = fnvByte(h, byte(v>>(8*uint(i))))
	}
	return h
}

func fnvString(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h = fnvByte(h, s[i])
	}
	return fnvByte(h, 0) // terminator so adjacent notes cannot alias
}

func fnvRecord(h uint64, rec Record) uint64 {
	h = fnvUint64(h, math.Float64bits(float64(rec.T)))
	h = fnvUint64(h, uint64(uint32(rec.Dst))<<32|uint64(uint32(rec.Src)))
	return fnvString(h, rec.Note)
}

// Hash digests the sorted trace (times, endpoints and notes) into one
// order-sensitive value: two runs committed the same event history iff
// their hashes agree. The differential harness compares these across
// engines. Call it only on unbounded recorders — a recorder that dropped
// records hashes a prefix, and the method panics to keep such a hash from
// ever being mistaken for a whole-run fingerprint.
func (r *Recorder) Hash() uint64 {
	if r.Dropped() > 0 {
		panic("trace: Hash on a recorder that dropped records")
	}
	h := r.hashBasis()
	for _, rec := range r.Records() {
		h = fnvRecord(h, rec)
	}
	return h
}

// PrefixHashes digests, for each horizon, the sorted-trace prefix of
// records with T strictly below that horizon. Horizons must be
// nondecreasing (GVT estimates are); the method panics otherwise. The
// point of prefix hashes over "hash of what was committed when the round
// ran" is that they are a pure function of the final committed trace and
// the horizon values: the kernel's determinism guarantee makes them
// reproducible across runs even though GVT round boundaries (a wall-clock
// artifact) are not. The replay verifier leans on exactly this — it
// evaluates a recording's horizons against a fresh run's trace. Same
// bounded-recorder caveat as Hash.
func (r *Recorder) PrefixHashes(horizons []core.Time) []uint64 {
	if r.Dropped() > 0 {
		panic("trace: PrefixHashes on a recorder that dropped records")
	}
	recs := r.Records()
	out := make([]uint64, len(horizons))
	h := r.hashBasis()
	i := 0
	for j, hor := range horizons {
		if j > 0 && hor < horizons[j-1] {
			panic("trace: PrefixHashes horizons must be nondecreasing")
		}
		for i < len(recs) && recs[i].T < hor {
			h = fnvRecord(h, recs[i])
			i++
		}
		out[j] = h
	}
	return out
}

// StateHash digests every LP's final model state (its %+v rendering, which
// walks exported struct fields deterministically) into one value. It is
// the "did the runs end in the same world" half of a run fingerprint, the
// committed trace being the "did they get there the same way" half; the
// simcheck harness and the replay verifier compare both.
func StateHash(h core.Host) uint64 {
	out := fnvOffset
	h.ForEachLP(func(lp *core.LP) {
		out = fnvString(out, fmt.Sprintf("%d=%+v;", lp.ID, lp.State))
	})
	return out
}

// LPHashes digests each destination LP's committed event order separately,
// so a divergence can be localised to the LPs whose histories differ rather
// than reported as one global mismatch. Records for destinations outside
// [0, numLPs) are ignored. Same caveat as Hash for bounded recorders.
func (r *Recorder) LPHashes(numLPs int) []uint64 {
	if r.Dropped() > 0 {
		panic("trace: LPHashes on a recorder that dropped records")
	}
	hs := make([]uint64, numLPs)
	for i := range hs {
		hs[i] = r.lpBasis(i)
	}
	for _, rec := range r.Records() {
		if rec.Dst >= 0 && int(rec.Dst) < numLPs {
			hs[rec.Dst] = fnvRecord(hs[rec.Dst], rec)
		}
	}
	return hs
}

// Dump writes the sorted trace, one event per line.
func (r *Recorder) Dump(w io.Writer) error {
	for _, rec := range r.Records() {
		if _, err := fmt.Fprintf(w, "%.6f lp=%d src=%d %s\n",
			float64(rec.T), rec.Dst, rec.Src, rec.Note); err != nil {
			return err
		}
	}
	if d := r.Dropped(); d > 0 {
		if _, err := fmt.Fprintf(w, "... %d records dropped (limit reached)\n", d); err != nil {
			return err
		}
	}
	return nil
}

// wrapped decorates a model handler with commit-time recording. It
// preserves the inner handler's Committer behaviour.
type wrapped struct {
	inner     core.Handler
	committer core.Committer // inner's Commit side, or nil
	rec       *Recorder
	describe  Describe
}

// Wrap returns a handler that behaves exactly like inner and additionally
// records every committed event. describe may be nil (DescribeData).
func Wrap(inner core.Handler, rec *Recorder, describe Describe) core.Handler {
	if describe == nil {
		describe = DescribeData
	}
	committer, _ := inner.(core.Committer)
	return &wrapped{inner: inner, committer: committer, rec: rec, describe: describe}
}

// Forward implements core.Handler.
func (w *wrapped) Forward(lp *core.LP, ev *core.Event) { w.inner.Forward(lp, ev) }

// Reverse implements core.Handler.
func (w *wrapped) Reverse(lp *core.LP, ev *core.Event) { w.inner.Reverse(lp, ev) }

// Commit implements core.Committer: the inner handler's Commit (if any)
// runs first, then the event is recorded.
func (w *wrapped) Commit(lp *core.LP, ev *core.Event) {
	if w.committer != nil {
		w.committer.Commit(lp, ev)
	}
	w.rec.add(Record{
		T:    ev.RecvTime(),
		Dst:  ev.Dst(),
		Src:  ev.Src(),
		Note: w.describe(lp, ev),
	})
}
