package core

import (
	"reflect"
	"testing"
)

// TestFaultsPreserveTrajectory is the fault injectors' defining property:
// under any combination of forced rollbacks, GVT delay, mailbox
// perturbation and PE throttling, the parallel kernel still commits exactly
// the sequential trajectory.
func TestFaultsPreserveTrajectory(t *testing.T) {
	base := Config{NumLPs: 64, EndTime: 40, Seed: 11}
	want, _ := runStressSequential(t, base, 16)

	plans := []struct {
		name string
		f    Faults
	}{
		{"forced-rollbacks", Faults{Seed: 1, RollbackEvery: 2, RollbackDepth: 4}},
		{"gvt-delay", Faults{Seed: 2, GVTDelay: 3}},
		{"shuffle-mail", Faults{Seed: 3, ShuffleMail: true}},
		{"throttle", Faults{Seed: 4, ThrottlePEs: 1, ThrottleBatch: 1}},
		{"everything", Faults{
			Seed: 5, RollbackEvery: 2, RollbackDepth: 4,
			GVTDelay: 1, ShuffleMail: true,
			ThrottlePEs: 1, ThrottleBatch: 1,
		}},
	}
	for _, tc := range plans {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			cfg := base
			cfg.NumPEs = 4
			cfg.NumKPs = 16
			cfg.BatchSize = 8
			cfg.GVTInterval = 2
			got, stats := runStressParallel(t, cfg, 16, paranoid, armFaults(t, &tc.f))
			if !reflect.DeepEqual(got, want) {
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("LP %d diverged under faults: got %+v want %+v", i, got[i], want[i])
					}
				}
			}
			if tc.f.RollbackEvery > 0 && stats.ForcedRollbacks == 0 {
				t.Fatalf("forced-rollback fault armed but ForcedRollbacks == 0\n%s", stats)
			}
			if stats.Processed != stats.Committed+stats.RolledBackEvents {
				t.Fatalf("accounting broken: processed=%d committed=%d rolledBack=%d",
					stats.Processed, stats.Committed, stats.RolledBackEvents)
			}
		})
	}
}

// TestForcedRollbacksGenerateVolume checks the injector manufactures real
// rollback work even in a configuration that would rarely roll back on its
// own (single PE cannot have stragglers at all).
func TestForcedRollbacksGenerateVolume(t *testing.T) {
	cfg := Config{
		NumLPs: 16, NumPEs: 1, NumKPs: 4, EndTime: 30, Seed: 3,
		BatchSize: 8, GVTInterval: 2,
	}
	want, _ := runStressSequential(t, Config{NumLPs: 16, EndTime: 30, Seed: 3}, 12)
	got, stats := runStressParallel(t, cfg, 12, paranoid,
		armFaults(t, &Faults{Seed: 9, RollbackEvery: 1, RollbackDepth: 4}))
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("single-PE forced rollbacks diverged")
	}
	if stats.ForcedRollbacks == 0 || stats.RolledBackEvents == 0 {
		t.Fatalf("expected rollback volume, got forced=%d events=%d",
			stats.ForcedRollbacks, stats.RolledBackEvents)
	}
	if stats.PrimaryRollbacks != 0 {
		t.Fatalf("single PE cannot see stragglers, yet primary rollbacks = %d", stats.PrimaryRollbacks)
	}
}

// TestFaultsValidate: SetFaults rejects a plan with any negative field
// with an error, not a panic (a plan can come from a recording on disk),
// and leaves the simulator unarmed.
func TestFaultsValidate(t *testing.T) {
	for name, plan := range map[string]Faults{
		"RollbackEvery": {RollbackEvery: -1},
		"RollbackDepth": {RollbackDepth: -1},
		"GVTDelay":      {GVTDelay: -1},
		"MailBurst":     {MailBurst: -1},
		"ThrottlePEs":   {ThrottlePEs: -1},
		"ThrottleBatch": {ThrottleBatch: -1},
	} {
		s, err := New(Config{NumLPs: 4, NumPEs: 2, EndTime: 1})
		if err != nil {
			t.Fatal(err)
		}
		if err := s.SetFaults(&plan); err == nil {
			t.Errorf("negative %s accepted", name)
		}
		if s.faults != nil || s.pes[0].faults != nil {
			t.Errorf("rejected %s plan left the simulator armed", name)
		}
	}
}

// TestSetFaultsDisarm: SetFaults(nil) after a plan disarms every injector,
// so the run forces no rollbacks.
func TestSetFaultsDisarm(t *testing.T) {
	cfg := Config{NumLPs: 16, NumPEs: 2, NumKPs: 4, EndTime: 30, Seed: 3, BatchSize: 8, GVTInterval: 2}
	plan := &Faults{Seed: 9, RollbackEvery: 1, RollbackDepth: 4}
	_, armed := runStressParallel(t, cfg, 12, armFaults(t, plan))
	if armed.ForcedRollbacks == 0 {
		t.Fatal("armed plan forced no rollbacks; the disarm check below would prove nothing")
	}
	_, stats := runStressParallel(t, cfg, 12, armFaults(t, plan), armFaults(t, nil))
	if stats.ForcedRollbacks != 0 {
		t.Fatalf("SetFaults(nil) left %d forced rollbacks", stats.ForcedRollbacks)
	}
}

// fanModel is the stress model with a drawn fan-out of 0 to 4 sends per
// event, and a hash over each received event's (src, seq) identity. Its
// rollbacks cancel sent lists that stay in Event.first, spill into
// moreBuf and grow onto the heap, and each must wind the LP's send
// sequence back by exactly the sends it lists: a wrong count renumbers
// every later send, which the hash sees.
type fanModel struct{ numLPs int64 }

func (m fanModel) Forward(lp *LP, ev *Event) {
	st := lp.State.(*stressState)
	msg := ev.Data.(*stressMsg)
	msg.PrevHash = st.Hash
	st.Hash = st.Hash*1099511628211 ^ uint64(ev.src+1)<<40 ^ ev.seq<<8 ^ uint64(ev.recvTime*1e6)
	st.Counter++
	if msg.TTL == 0 {
		return
	}
	for n := lp.RandInt(0, 4); n > 0; n-- {
		dst := LPID(lp.RandInt(0, m.numLPs-1))
		lp.Send(dst, Time(lp.RandExp(1.0))+0.001, &stressMsg{TTL: msg.TTL - 1})
	}
}

func (m fanModel) Reverse(lp *LP, ev *Event) {
	st := lp.State.(*stressState)
	st.Hash = ev.Data.(*stressMsg).PrevHash
	st.Counter--
}

// TestFanOutRollbackRestoresSends: under forced rollbacks a fan-out model
// commits exactly the sequential trajectory, and every LP ends on the
// sequential run's send sequence.
func TestFanOutRollbackRestoresSends(t *testing.T) {
	const lps, ttl = 32, 5
	type result struct {
		states  []stressState
		sendSeq []uint64
	}
	run := func(lookup func(LPID) *LP, schedule func(LPID, Time, any), run func() (*Stats, error)) (result, *Stats) {
		for i := 0; i < lps; i++ {
			lp := lookup(LPID(i))
			lp.Handler = fanModel{numLPs: lps}
			lp.State = &stressState{}
		}
		for i := 0; i < lps; i++ {
			schedule(LPID(i), Time(0.001*float64(i+1)), &stressMsg{TTL: ttl})
		}
		stats, err := run()
		if err != nil {
			t.Fatal(err)
		}
		var r result
		for i := 0; i < lps; i++ {
			r.states = append(r.states, *lookup(LPID(i)).State.(*stressState))
			r.sendSeq = append(r.sendSeq, lookup(LPID(i)).sendSeq)
		}
		return r, stats
	}

	base := Config{NumLPs: lps, EndTime: 30, Seed: 3}
	q, err := NewSequential(base)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := run(q.LP, q.Schedule, q.Run)

	cfg := base
	cfg.NumPEs, cfg.NumKPs, cfg.BatchSize, cfg.GVTInterval = 4, 16, 8, 2
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	paranoid(s)
	armFaults(t, &Faults{Seed: 9, RollbackEvery: 2, RollbackDepth: 6})(s)
	got, stats := run(s.LP, s.Schedule, s.Run)
	if stats.RolledBackEvents == 0 {
		t.Fatal("no events rolled back: the sent lists were never cancelled")
	}
	if !reflect.DeepEqual(got, want) {
		for i := range got.states {
			if got.states[i] != want.states[i] || got.sendSeq[i] != want.sendSeq[i] {
				t.Fatalf("LP %d diverged: got %+v sendSeq %d, want %+v sendSeq %d",
					i, got.states[i], got.sendSeq[i], want.states[i], want.sendSeq[i])
			}
		}
	}
}
