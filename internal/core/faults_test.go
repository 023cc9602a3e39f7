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
