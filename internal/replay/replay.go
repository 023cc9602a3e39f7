// Package replay is the kernel's deterministic record/replay subsystem.
//
// A recording captures everything needed to re-execute a run and check it
// reproduced bit-for-bit: the run's Spec (model, engine shape, seed, fault
// plan), every injected bootstrap event with its payload serialized
// through a model Codec, the cross-PE mail arrival order and rollback
// points each PE observed (diagnostic context for -dump), and one trace
// fingerprint per GVT round. The log is a compact varint-delta encoded,
// CRC-framed binary format documented in docs/REPLAY.md.
//
// This package holds the formats only: the log and checkpoint wire
// formats, their Reader, the model codec registry, the kernel Recorder,
// the crash-atomic CheckpointWriter and Dump. The drivers that build a
// model and run it — record, replay, shrink, checkpointed verify and
// resume — live in internal/simcheck beside the model table. Replaying
// re-runs the recorded injections from a fresh build of the same Spec and
// compares fingerprints. Because GVT round boundaries are a wall-clock
// artifact, per-round fingerprints are *prefix* hashes of the committed
// trace below the round's GVT estimate (see trace.Recorder.PrefixHashes):
// a pure function of the committed history and the recorded horizon,
// reproducible across runs even though round placement is not.
package replay

import (
	"repro/internal/core"
)

// Spec identifies a reproducible run: which model to build, under what
// engine shape, and from what seed. It is everything needed to rebuild the
// simulation that produced a log.
type Spec struct {
	// Model is the harness's model name (e.g. "hotpotato").
	Model string
	// Codec names the registered payload codec for the model's messages.
	Codec string
	// Queue names the pending queue the recording ran on. Informational,
	// like BatchSize and GVTInterval: every engine runs the ladder and the
	// harness ignores the slot. Recordings write "ladder"; logs from builds
	// that also offered a binary heap may say "heap". The decoder rejects
	// any other value.
	Queue string
	// Mutation optionally names a seeded bug the harness arms on
	// optimistic builds (simcheck's Mutation); recorded so a shrunk
	// artifact of a mutation-induced failure stays self-describing.
	Mutation string
	// PEs and KPs shape the optimistic engine.
	PEs, KPs int
	// BatchSize and GVTInterval are the scheduling knobs the recording ran
	// under. Informational: the harness runs its own fixed knobs
	// instead (committed results do not depend on scheduling granularity —
	// that is the determinism guarantee being verified).
	BatchSize, GVTInterval int
	// Seed selects the random universe.
	Seed uint64
	// EndTime is the virtual-time horizon. Zero means the model default;
	// recorded logs always carry the resolved value.
	EndTime core.Time
	// Faults is the kernel fault plan armed on optimistic builds, if any.
	Faults *core.Faults
}

// Injection is one recorded bootstrap event: its receive time, target LP
// and codec-encoded payload.
type Injection struct {
	T    core.Time
	Dst  core.LPID
	Data []byte
}

// MailBatch records that one lane drain delivered N messages from sender
// PE Src, in arrival order.
type MailBatch struct {
	Src int
	N   int
}

// Rollback records one rollback: the KP that unwound, how many events it
// reversed, and its cause (straggler when both flags are false).
type Rollback struct {
	KP        int
	Events    int
	Secondary bool
	Forced    bool
}

// PELog is one PE's recorded stream of mail arrivals and rollbacks, in the
// order that PE observed them.
type PELog struct {
	PE        int
	Mail      []MailBatch
	Rollbacks []Rollback
}

// Round is one GVT round: the estimate it computed and the FNV-1a hash of
// the committed-trace prefix strictly below that estimate.
type Round struct {
	GVT       core.Time
	TraceHash uint64
}

// Fingerprint is the whole-run summary two runs of the same model and seed
// must agree on, whatever the engine, parallelism, batching or fault
// plan: committed event count, trace length, the full-trace hash, each
// LP's event-order hash and the final model-state hash. A log stores every
// field but LPHashes, so a decoded Log's Final has none.
type Fingerprint struct {
	// Committed is the kernel's committed event count.
	Committed int64
	// TraceLen is the number of committed, recorded events.
	TraceLen int
	// TraceHash digests the full committed trace in deterministic order.
	TraceHash uint64
	// LPHashes digests each LP's committed event order separately, which
	// localises a divergence.
	LPHashes []uint64
	// StateHash digests the final per-LP model state.
	StateHash uint64
}

// Log is one complete recording.
type Log struct {
	Spec   Spec
	Inject []Injection
	PEs    []PELog
	Rounds []Round
	Final  Fingerprint
}
