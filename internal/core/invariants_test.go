package core

import (
	"strings"
	"testing"
)

// TestParanoidModeCleanRun: a correct model under heavy rollback pressure
// must pass every invariant round.
func TestParanoidModeCleanRun(t *testing.T) {
	cfg := Config{
		NumLPs: 64, EndTime: 60, Seed: 11, NumPEs: 4, NumKPs: 8,
		BatchSize: 4, GVTInterval: 2,
	}
	_, stats := runStressParallel(t, cfg, 30, paranoid)
	if stats.GVTRounds == 0 {
		t.Fatal("no GVT rounds ran, so no invariants were checked")
	}
}

// brokenReverseModel fails to restore its counter, which paranoid mode
// cannot see directly — but a model corrupting kernel structures can be
// simulated by mutating the processed list; instead we verify the checker
// itself by corrupting a KP after a run step.
func TestInvariantCheckerDetectsCorruption(t *testing.T) {
	s, err := New(Config{NumLPs: 2, NumPEs: 1, NumKPs: 2, EndTime: 1000,
		KPOfLP: func(lp int) int { return lp }, PEOfKP: func(int) int { return 0 }})
	if err != nil {
		t.Fatal(err)
	}
	s.ForEachLP(func(lp *LP) { lp.Handler = recModel{}; lp.State = &recState{} })
	pe := s.pes[0]
	pe.insert(&Event{recvTime: 1, dst: 0, src: NoLP, seq: 1, Data: &recMsg{}})
	pe.insert(&Event{recvTime: 2, dst: 0, src: NoLP, seq: 2, Data: &recMsg{}})
	exec(t, pe)
	exec(t, pe)

	if err := pe.checkInvariants(0); err != nil {
		t.Fatalf("clean state flagged: %v", err)
	}

	// Corrupt: swap the processed order.
	kp := s.lps[0].kp
	kp.processed[0], kp.processed[1] = kp.processed[1], kp.processed[0]
	err = pe.checkInvariants(0)
	if err == nil || !strings.Contains(err.Error(), "out of order") {
		t.Fatalf("corruption not detected: %v", err)
	}
	kp.processed[0], kp.processed[1] = kp.processed[1], kp.processed[0]

	// Corrupt: stale lastKey.
	kp.lastKey.seq++
	err = pe.checkInvariants(0)
	if err == nil || !strings.Contains(err.Error(), "lastKey") {
		t.Fatalf("stale lastKey not detected: %v", err)
	}
	kp.lastKey.seq--

	// Corrupt: pending event before the KP's last processed event.
	bad := &Event{recvTime: 0.5, dst: 0, src: NoLP, seq: 99}
	bad.state = statePending
	pe.pending.Push(bad)
	err = pe.checkInvariants(0)
	if err == nil || !strings.Contains(err.Error(), "precedes") {
		t.Fatalf("straggler postcondition violation not detected: %v", err)
	}
}
