package eventq

// Microbenchmarks for the ladder under the access
// patterns a Time Warp kernel actually generates. Each benchmark is a
// classic hold model: prefill the queue to a target population n, then
// repeatedly pop the minimum and push a successor whose key is drawn from
// the pattern. The batch per b.N iteration is sized so that one iteration
// is meaningful under `-benchtime=1x` (the Makefile's bench target runs
// every benchmark once per sample and keeps the best of -count samples).
//
// Patterns:
//
//   - inc: mostly-increasing timestamps (exponential-ish increments) —
//     the steady-state main loop of a well-behaved PDES model.
//   - rollback: increasing baseline with periodic bursts of stragglers
//     pushed below the current frontier — the re-insertion traffic a
//     rollback storm generates.
//   - skew: bimodal increments (mostly tiny, occasionally huge) — the
//     heavy-tailed service times that defeat naive calendar queues.
//
// Elements carry a (t, seq) pair ordered lexicographically, mirroring the
// kernel's total order on events: float timestamp first, unique tiebreak
// second, so equal timestamps are legal inputs here even though the
// comparator is total.

import (
	"math/rand"
	"strconv"
	"testing"
)

// benchItem mirrors the kernel's event ordering shape: float key plus a
// unique sequence tiebreak.
type benchItem struct {
	t   float64
	seq uint64
}

func benchLess(a, b benchItem) bool {
	if a.t != b.t {
		return a.t < b.t
	}
	return a.seq < b.seq
}

func benchKey(v benchItem) float64 { return v.t }

// benchSizes are the held populations, from cache-resident to a million.
var benchSizes = []int{1_000, 100_000, 1_000_000}

// holdPattern returns the increment stream for a pattern as a fixed table
// the hold loop cycles through, so RNG cost is excluded from the
// measurement.
func holdPattern(pattern string) []float64 {
	rng := rand.New(rand.NewSource(99))
	inc := make([]float64, 1<<14)
	for i := range inc {
		switch pattern {
		case "inc":
			inc[i] = rng.ExpFloat64()
		case "rollback":
			// Mostly forward progress; every 64th draw is a straggler
			// landing up to 8 mean-increments below the frontier.
			if i%64 == 63 {
				inc[i] = -8 * rng.Float64()
			} else {
				inc[i] = rng.ExpFloat64()
			}
		case "skew":
			// Bimodal: 85% tiny steps, 15% jumps two orders larger.
			if rng.Intn(100) < 85 {
				inc[i] = rng.Float64() * 0.01
			} else {
				inc[i] = rng.Float64() * 100
			}
		default:
			panic("unknown pattern " + pattern)
		}
	}
	return inc
}

// prefill populates q with n items clustered like a warmed-up pending set.
func prefill(q *Ladder[benchItem], n int, seq *uint64) float64 {
	rng := rand.New(rand.NewSource(7))
	front := 0.0
	for i := 0; i < n; i++ {
		*seq++
		q.Push(benchItem{t: front + rng.ExpFloat64()*float64(n)/16, seq: *seq})
	}
	return front
}

// hold runs ops pop-push holds against q and returns the final frontier.
func hold(q *Ladder[benchItem], inc []float64, ops int, seq *uint64) float64 {
	frontier := 0.0
	for i := 0; i < ops; i++ {
		v, ok := q.Pop()
		if !ok {
			panic("bench: queue drained")
		}
		frontier = v.t
		nt := frontier + inc[i&(len(inc)-1)]
		if nt < 0 {
			nt = 0
		}
		*seq++
		q.Push(benchItem{t: nt, seq: *seq})
	}
	return frontier
}

// benchOps sizes one b.N iteration: enough work to dominate timer
// resolution at small n without making the 1e6 cells take minutes.
func benchOps(n int) int {
	ops := 2 * n
	if ops < 1<<17 {
		ops = 1 << 17
	}
	return ops
}

// BenchmarkQueue measures the ladder under every pattern and size:
// Queue/<pattern>/n=<n>. ns/op is per batch of benchOps(n) holds; the
// ns/hold metric is the per-operation figure.
func BenchmarkQueue(b *testing.B) {
	for _, pattern := range []string{"inc", "rollback", "skew"} {
		b.Run(pattern, func(b *testing.B) {
			for _, n := range benchSizes {
				b.Run("n="+itoa(n), func(b *testing.B) {
					inc := holdPattern(pattern)
					ops := benchOps(n)
					var seq uint64
					q := NewLadder(benchLess, benchKey)
					prefill(q, n, &seq)
					// Warm the structure past its build-up transient
					// (rung spawning) before the timer starts.
					hold(q, inc, ops/4, &seq)
					b.ReportAllocs()
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						hold(q, inc, ops, &seq)
					}
					b.StopTimer()
					perOp := float64(b.Elapsed().Nanoseconds()) / float64(b.N) / float64(ops)
					b.ReportMetric(perOp, "ns/hold")
				})
			}
		})
	}
}

func itoa(n int) string { return strconv.Itoa(n) }
