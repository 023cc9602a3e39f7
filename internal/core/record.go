package core

// RecordSink receives low-level kernel occurrences for the record/replay
// subsystem (internal/replay): cross-PE mail arrival batches, rollback
// points, and GVT rounds. Every callback runs on a kernel goroutine in the
// scheduling hot path, so implementations must be cheap, must not block,
// and must not call back into the simulator. The arguments are plain
// integers and times on purpose — a sink never sees an *Event, so it can
// neither retain a pooled event nor force an allocation at the call site.
// A nil sink (the default) costs one pointer test per site.
//
// Only the optimistic Simulator emits records; the Sequential and
// Conservative engines ignore Config.Record.
type RecordSink interface {
	// MailBatch reports that PE dst drained n messages (positive events
	// and anti-messages alike) that sender PE src had published to its
	// lane, in arrival order. Runs on dst's goroutine.
	MailBatch(dst, src, n int)
	// Rollback reports a completed rollback on PE pe of KP kp that
	// reversed events events. secondary marks cancellation-induced
	// rollbacks, forced marks fault-injected ones (see Faults); a
	// straggler-induced primary rollback has both false. Runs on pe's
	// goroutine.
	Rollback(pe, kp, events int, secondary, forced bool)
	// GVTRound reports that GVT round round computed estimate gvt
	// (TimeInfinity on the final, drained round). Runs on PE 0 while the
	// other PEs keep executing; the estimate is still a sound commit
	// horizon (that is the GVT property recording relies on), and
	// successive estimates are nondecreasing, which the replay subsystem's
	// prefix-hash fingerprints require.
	GVTRound(round int64, gvt Time)
}
