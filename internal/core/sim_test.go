package core

import (
	"strings"
	"testing"
)

// stressState is the per-LP state of the kernel stress model. Hash is an
// order-sensitive digest of every event the LP processed, so any deviation
// of the parallel committed order from the sequential order changes it.
type stressState struct {
	Counter int64
	Hash    uint64
}

// stressMsg is the stress model's payload; PrevHash is the reverse-
// computation save slot.
type stressMsg struct {
	TTL      int
	PrevHash uint64
}

// stressModel bounces messages between uniformly random LPs with random
// exponential delays until each message's TTL expires. The all-to-all
// traffic and tiny delays make stragglers (and therefore rollbacks) very
// likely under parallel execution.
type stressModel struct {
	numLPs int64
}

func (m stressModel) Forward(lp *LP, ev *Event) {
	st := lp.State.(*stressState)
	msg := ev.Data.(*stressMsg)
	msg.PrevHash = st.Hash
	st.Hash = st.Hash*1099511628211 ^ uint64(ev.Src()+1)<<17 ^ uint64(ev.RecvTime()*1e6)
	st.Counter++
	if msg.TTL > 0 {
		dst := LPID(lp.RandInt(0, m.numLPs-1))
		delay := Time(lp.RandExp(1.0)) + 0.001
		lp.Send(dst, delay, &stressMsg{TTL: msg.TTL - 1})
	}
}

func (m stressModel) Reverse(lp *LP, ev *Event) {
	st := lp.State.(*stressState)
	msg := ev.Data.(*stressMsg)
	st.Hash = msg.PrevHash
	st.Counter--
}

// runStressSequential runs the stress model on the Sequential engine and
// returns the per-LP states plus kernel stats.
func runStressSequential(t *testing.T, cfg Config, ttl int) ([]stressState, *Stats) {
	t.Helper()
	q, err := NewSequential(cfg)
	if err != nil {
		t.Fatalf("NewSequential: %v", err)
	}
	model := stressModel{numLPs: int64(cfg.NumLPs)}
	q.ForEachLP(func(lp *LP) {
		lp.Handler = model
		lp.State = &stressState{}
	})
	for i := 0; i < cfg.NumLPs; i++ {
		q.Schedule(LPID(i), Time(0.001*float64(i+1)), &stressMsg{TTL: ttl})
	}
	stats, err := q.Run()
	if err != nil {
		t.Fatalf("sequential Run: %v", err)
	}
	return snapshotStress(q.NumLPs(), q.LP), stats
}

// runStressParallel runs the stress model on the parallel kernel; arm, if
// given, runs on the built simulator before Run (e.g. to attach a sink).
func runStressParallel(t *testing.T, cfg Config, ttl int, arm ...func(*Simulator)) ([]stressState, *Stats) {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	for _, f := range arm {
		f(s)
	}
	model := stressModel{numLPs: int64(cfg.NumLPs)}
	s.ForEachLP(func(lp *LP) {
		lp.Handler = model
		lp.State = &stressState{}
	})
	for i := 0; i < cfg.NumLPs; i++ {
		s.Schedule(LPID(i), Time(0.001*float64(i+1)), &stressMsg{TTL: ttl})
	}
	stats, err := s.Run()
	if err != nil {
		t.Fatalf("parallel Run: %v", err)
	}
	return snapshotStress(s.NumLPs(), s.LP), stats
}

// paranoid is a runStressParallel arm hook that turns on paranoid mode.
func paranoid(s *Simulator) { s.SetParanoid(0) }

// armFaults returns a runStressParallel arm hook that arms plan.
func armFaults(t *testing.T, plan *Faults) func(*Simulator) {
	return func(s *Simulator) {
		if err := s.SetFaults(plan); err != nil {
			t.Fatal(err)
		}
	}
}

func snapshotStress(n int, lp func(LPID) *LP) []stressState {
	out := make([]stressState, n)
	for i := 0; i < n; i++ {
		out[i] = *lp(LPID(i)).State.(*stressState)
	}
	return out
}

// TestParallelMatchesSequential is the kernel's core correctness property
// (the report's Attachment 3): for any PE/KP/batch configuration, the
// parallel kernel commits exactly the event history the sequential engine
// produces. The subtest names are stable identifiers; their "q" segment
// dates from when the pending queue was selectable.
func TestParallelMatchesSequential(t *testing.T) {
	base := Config{NumLPs: 64, EndTime: 50, Seed: 7}
	want, seqStats := runStressSequential(t, base, 20)

	configs := []struct {
		name string
		cfg  Config
	}{
		{"pe1_kp4_q_b0", Config{NumLPs: 64, EndTime: 50, Seed: 7, NumPEs: 1, NumKPs: 4}},
		{"pe2_kp8_q_b0", Config{NumLPs: 64, EndTime: 50, Seed: 7, NumPEs: 2, NumKPs: 8}},
		{"pe4_kp16_q_b4", Config{NumLPs: 64, EndTime: 50, Seed: 7, NumPEs: 4, NumKPs: 16, BatchSize: 4, GVTInterval: 2}},
		{"pe4_kp4_q_b2", Config{NumLPs: 64, EndTime: 50, Seed: 7, NumPEs: 4, NumKPs: 4, BatchSize: 2, GVTInterval: 1}},
		{"pe8_kp64_qladder_b0", Config{NumLPs: 64, EndTime: 50, Seed: 7, NumPEs: 8, NumKPs: 64}},
		{"pe3_kp7_q_b0", Config{NumLPs: 64, EndTime: 50, Seed: 7, NumPEs: 3, NumKPs: 7}}, // uneven mapping
	}
	for _, tc := range configs {
		cfg := tc.cfg
		t.Run(tc.name, func(t *testing.T) {
			got, parStats := runStressParallel(t, cfg, 20)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("LP %d state mismatch: parallel %+v vs sequential %+v", i, got[i], want[i])
				}
			}
			if parStats.Committed != seqStats.Committed {
				t.Fatalf("committed events: parallel %d vs sequential %d",
					parStats.Committed, seqStats.Committed)
			}
		})
	}
}

// TestParallelDeterministicAcrossRuns runs the same parallel configuration
// twice and demands bit-identical model state: the randomised-delay +
// total-event-order design makes optimistic execution repeatable (§3.2.2).
func TestParallelDeterministicAcrossRuns(t *testing.T) {
	cfg := Config{NumLPs: 48, EndTime: 40, Seed: 3, NumPEs: 4, NumKPs: 8, BatchSize: 4, GVTInterval: 2}
	a, _ := runStressParallel(t, cfg, 15)
	b, _ := runStressParallel(t, cfg, 15)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("run-to-run mismatch at LP %d: %+v vs %+v", i, a[i], b[i])
		}
	}
}

// TestRollbacksActuallyHappen keeps the stress configuration honest: with
// several PEs, tiny batches and all-to-all traffic, the parallel runs that
// the equality test relies on must actually exercise rollback paths.
func TestRollbacksActuallyHappen(t *testing.T) {
	if testing.Short() {
		t.Skip("needs a multi-PE run")
	}
	cfg := Config{NumLPs: 128, EndTime: 80, Seed: 11, NumPEs: 4, NumKPs: 8, BatchSize: 4, GVTInterval: 2}
	_, stats := runStressParallel(t, cfg, 40)
	if stats.RolledBackEvents == 0 {
		t.Log("warning: no rollbacks occurred; equality test may not cover rollback paths on this host")
	}
	if stats.Processed < stats.Committed {
		t.Fatalf("processed %d < committed %d", stats.Processed, stats.Committed)
	}
	if stats.Processed != stats.Committed+stats.RolledBackEvents {
		t.Fatalf("processed %d != committed %d + rolled back %d",
			stats.Processed, stats.Committed, stats.RolledBackEvents)
	}
}

// TestSeedChangesResults guards against the RNG being ignored: different
// seeds must lead to different histories.
func TestSeedChangesResults(t *testing.T) {
	cfgA := Config{NumLPs: 32, EndTime: 30, Seed: 1}
	cfgB := Config{NumLPs: 32, EndTime: 30, Seed: 2}
	a, _ := runStressSequential(t, cfgA, 10)
	b, _ := runStressSequential(t, cfgB, 10)
	same := true
	for i := range a {
		if a[i] != b[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical histories")
	}
}

// TestConfigValidation exercises the error paths of New/NewSequential.
func TestConfigValidation(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
	}{
		{"zero LPs", Config{NumLPs: 0, EndTime: 10}},
		{"negative LPs", Config{NumLPs: -4, EndTime: 10}},
		{"zero end time", Config{NumLPs: 4}},
		{"negative end time", Config{NumLPs: 4, EndTime: -1}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := New(tc.cfg); err == nil {
				t.Error("New accepted invalid config")
			}
			if _, err := NewSequential(tc.cfg); err == nil {
				t.Error("NewSequential accepted invalid config")
			}
		})
	}
}

// TestConfigDefaults checks the derived placement parameters.
func TestConfigDefaults(t *testing.T) {
	cfg := Config{NumLPs: 100, EndTime: 1}
	if _, err := cfg.resolve(); err != nil {
		t.Fatal(err)
	}
	if cfg.NumPEs <= 0 || cfg.NumPEs > 100 {
		t.Errorf("NumPEs = %d", cfg.NumPEs)
	}
	if cfg.NumKPs < cfg.NumPEs || cfg.NumKPs > 100 {
		t.Errorf("NumKPs = %d with NumPEs = %d", cfg.NumKPs, cfg.NumPEs)
	}
	if cfg.BatchSize <= 0 || cfg.GVTInterval <= 0 {
		t.Errorf("batch %d interval %d", cfg.BatchSize, cfg.GVTInterval)
	}
	// More PEs than LPs must clamp.
	cfg2 := Config{NumLPs: 3, EndTime: 1, NumPEs: 64, NumKPs: 128}
	if _, err := cfg2.resolve(); err != nil {
		t.Fatal(err)
	}
	if cfg2.NumPEs > 3 || cfg2.NumKPs > 3 {
		t.Errorf("clamping failed: PEs=%d KPs=%d", cfg2.NumPEs, cfg2.NumKPs)
	}
}

// TestRunRequiresHandlers verifies the missing-handler diagnostic.
func TestRunRequiresHandlers(t *testing.T) {
	s, err := New(Config{NumLPs: 2, EndTime: 1, NumPEs: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(); err == nil {
		t.Fatal("Run succeeded without handlers")
	}
}

// TestRunTwiceFails verifies single-use semantics.
func TestRunTwiceFails(t *testing.T) {
	cfg := Config{NumLPs: 2, EndTime: 1, NumPEs: 1}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.ForEachLP(func(lp *LP) { lp.Handler = stressModel{numLPs: 2}; lp.State = &stressState{} })
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(); err == nil {
		t.Fatal("second Run succeeded")
	}
}

// TestEmptySimulationTerminates: no events at all must still finish.
func TestEmptySimulationTerminates(t *testing.T) {
	for _, pes := range []int{1, 2, 4} {
		s, err := New(Config{NumLPs: 8, EndTime: 100, NumPEs: pes})
		if err != nil {
			t.Fatal(err)
		}
		s.ForEachLP(func(lp *LP) { lp.Handler = stressModel{numLPs: 8}; lp.State = &stressState{} })
		stats, err := s.Run()
		if err != nil {
			t.Fatal(err)
		}
		if stats.Committed != 0 {
			t.Errorf("pes=%d: committed %d events in an empty simulation", pes, stats.Committed)
		}
	}
}

// TestEventsBeyondEndTimeNeverExecute checks the horizon semantics.
func TestEventsBeyondEndTimeNeverExecute(t *testing.T) {
	s, err := New(Config{NumLPs: 4, EndTime: 10, NumPEs: 2})
	if err != nil {
		t.Fatal(err)
	}
	s.ForEachLP(func(lp *LP) { lp.Handler = stressModel{numLPs: 4}; lp.State = &stressState{} })
	s.Schedule(0, 5, &stressMsg{TTL: 0})
	s.Schedule(1, 10, &stressMsg{TTL: 0}) // exactly at horizon: excluded
	s.Schedule(2, 15, &stressMsg{TTL: 0})
	stats, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Committed != 1 {
		t.Fatalf("committed %d, want 1", stats.Committed)
	}
	if c := s.LP(1).State.(*stressState).Counter; c != 0 {
		t.Errorf("event at the horizon executed (counter=%d)", c)
	}
}

// panicModel triggers a panic on the first event; the kernel must convert
// it into an error from Run on every PE, not a deadlock.
type panicModel struct{}

func (panicModel) Forward(lp *LP, ev *Event) { panic("boom") }
func (panicModel) Reverse(lp *LP, ev *Event) {}

// The error names the LP, the phase and the event that panicked.
func TestHandlerPanicBecomesError(t *testing.T) {
	for _, kind := range EngineKinds() {
		for _, pes := range []int{1, 4} {
			eng, err := NewEngine(kind, Config{NumLPs: 8, EndTime: 10, NumPEs: pes}, 0.5)
			if err != nil {
				t.Fatal(err)
			}
			eng.ForEachLP(func(lp *LP) { lp.Handler = panicModel{} })
			eng.Schedule(3, 1, nil)
			_, err = eng.Run()
			if err == nil {
				t.Fatalf("%v pes=%d: Run did not surface the handler panic", kind, pes)
			}
			msg, _, _ := strings.Cut(err.Error(), "\n")
			for _, want := range []string{"in LP 3 Forward", "t=1 ", "boom"} {
				if !strings.Contains(msg, want) {
					t.Errorf("%v pes=%d: error %q does not name %q", kind, pes, msg, want)
				}
			}
		}
	}
}

// TestScheduleValidation covers the bootstrap-event guard rails.
func TestScheduleValidation(t *testing.T) {
	s, err := New(Config{NumLPs: 2, EndTime: 1, NumPEs: 1})
	if err != nil {
		t.Fatal(err)
	}
	mustPanic(t, "negative time", func() { s.Schedule(0, -1, nil) })
	mustPanic(t, "unknown LP", func() { s.Schedule(99, 0, nil) })
}

func mustPanic(t *testing.T, name string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s: expected panic", name)
		}
	}()
	fn()
}

// zeroDelayModel checks the Send guard rails at runtime.
type zeroDelayModel struct{}

func (zeroDelayModel) Forward(lp *LP, ev *Event) { lp.SendSelf(0, nil) }
func (zeroDelayModel) Reverse(lp *LP, ev *Event) {}

func TestZeroDelaySendRejected(t *testing.T) {
	s, err := New(Config{NumLPs: 1, EndTime: 10, NumPEs: 1})
	if err != nil {
		t.Fatal(err)
	}
	s.ForEachLP(func(lp *LP) { lp.Handler = zeroDelayModel{} })
	s.Schedule(0, 1, nil)
	if _, err := s.Run(); err == nil {
		t.Fatal("zero-delay send was accepted")
	}
}

// commitRecorder verifies Commit runs exactly once per committed event, in
// per-LP event order, after the event can no longer roll back.
type commitRecorder struct {
	numLPs int64
}

type commitState struct {
	commits []Time
}

func (m commitRecorder) Forward(lp *LP, ev *Event) {
	msg := ev.Data.(*stressMsg)
	if msg.TTL > 0 {
		dst := LPID(lp.RandInt(0, m.numLPs-1))
		lp.Send(dst, Time(lp.RandExp(1))+0.001, &stressMsg{TTL: msg.TTL - 1})
	}
}
func (m commitRecorder) Reverse(lp *LP, ev *Event) {}
func (m commitRecorder) Commit(lp *LP, ev *Event) {
	st := lp.State.(*commitState)
	st.commits = append(st.commits, ev.RecvTime())
}

func TestCommitOrderPerLP(t *testing.T) {
	for _, pes := range []int{1, 4} {
		cfg := Config{NumLPs: 16, EndTime: 30, Seed: 5, NumPEs: pes, NumKPs: 8, BatchSize: 4, GVTInterval: 2}
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		model := commitRecorder{numLPs: 16}
		s.ForEachLP(func(lp *LP) {
			lp.Handler = model
			lp.State = &commitState{}
		})
		for i := 0; i < 16; i++ {
			s.Schedule(LPID(i), Time(0.01*float64(i+1)), &stressMsg{TTL: 10})
		}
		stats, err := s.Run()
		if err != nil {
			t.Fatal(err)
		}
		total := 0
		s.ForEachLP(func(lp *LP) {
			st := lp.State.(*commitState)
			for i := 1; i < len(st.commits); i++ {
				if st.commits[i] < st.commits[i-1] {
					t.Fatalf("pes=%d LP %d: commits out of order: %v", pes, lp.ID, st.commits)
				}
			}
			total += len(st.commits)
		})
		if int64(total) != stats.Committed {
			t.Fatalf("pes=%d: Commit callbacks %d != committed %d", pes, total, stats.Committed)
		}
	}
}

// TestStatsString smoke-tests the human-readable rendering.
func TestStatsString(t *testing.T) {
	_, stats := runStressSequential(t, Config{NumLPs: 8, EndTime: 10, Seed: 1}, 3)
	out := stats.String()
	if len(out) == 0 {
		t.Fatal("empty stats rendering")
	}
}
