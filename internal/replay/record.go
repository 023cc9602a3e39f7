package replay

import (
	"repro/internal/core"
	"repro/internal/trace"
)

// Recorder accumulates one optimistic run's kernel recording. It
// implements core.RecordSink without locks: each per-PE stream is appended
// to only by that PE's goroutine (MailBatch and Rollback run on the
// observing PE), and the round stream only by PE 0 as it completes each
// GVT round; Run's completion orders every write before Finalize's reads.
type Recorder struct {
	pes    []PELog
	rounds []Round
}

// NewRecorder sizes a recorder for an engine with numPEs processing
// elements.
func NewRecorder(numPEs int) *Recorder {
	r := &Recorder{pes: make([]PELog, numPEs)}
	for i := range r.pes {
		r.pes[i].PE = i
	}
	return r
}

// MailBatch implements core.RecordSink.
func (r *Recorder) MailBatch(dst, src, n int) {
	p := &r.pes[dst]
	p.Mail = append(p.Mail, MailBatch{Src: src, N: n})
}

// Rollback implements core.RecordSink.
func (r *Recorder) Rollback(pe, kp, events int, secondary, forced bool) {
	p := &r.pes[pe]
	p.Rollbacks = append(p.Rollbacks, Rollback{KP: kp, Events: events, Secondary: secondary, Forced: forced})
}

// GVTRound implements core.RecordSink. Only the estimate is stored here;
// the round's trace-prefix fingerprint is computed in Finalize, once the
// committed trace is complete, because the fingerprint is defined over the
// final trace (see package comment).
func (r *Recorder) GVTRound(round int64, gvt core.Time) {
	r.rounds = append(r.rounds, Round{GVT: gvt})
}

// Finalize assembles the finished Log once the run is over: per-round
// prefix fingerprints are evaluated against the run's committed trace (GVT
// estimates are nondecreasing, which is what PrefixHashes requires), and
// the header's queue slot says "ladder", the pending list every engine
// runs.
func (r *Recorder) Finalize(spec Spec, inj []Injection, tr *trace.Recorder, final Fingerprint) *Log {
	spec.Queue = "ladder"
	horizons := make([]core.Time, len(r.rounds))
	for i, rd := range r.rounds {
		horizons[i] = rd.GVT
	}
	fps := tr.PrefixHashes(horizons)
	rounds := make([]Round, len(r.rounds))
	for i := range rounds {
		rounds[i] = Round{GVT: r.rounds[i].GVT, TraceHash: fps[i]}
	}
	return &Log{Spec: spec, Inject: inj, PEs: r.pes, Rounds: rounds, Final: final}
}
