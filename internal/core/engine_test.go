package core

import (
	"fmt"
	"math"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/rng"
	"repro/internal/topology"
)

// tableOf reaches the LP table an engine embeds.
func tableOf(t *testing.T, e Engine) *lpTable {
	switch e := e.(type) {
	case *Simulator:
		return &e.lpTable
	case *Sequential:
		return &e.lpTable
	case *Conservative:
		return &e.lpTable
	}
	t.Fatalf("unknown engine type %T", e)
	return nil
}

// TestEngineHostContract holds every engine kind to the one Host and
// bootstrap contract: Schedule's guards, bootstrap events visited in
// schedule order, DropBootstrap resetting the sequence, and Run latching
// setup shut.
func TestEngineHostContract(t *testing.T) {
	for _, kind := range EngineKinds() {
		t.Run(string(kind), func(t *testing.T) {
			e, err := NewEngine(kind, Config{NumLPs: 4, NumPEs: 2, EndTime: 10}, 1)
			if err != nil {
				t.Fatal(err)
			}
			// NaN fails every ordered comparison, so a "< 0" guard would
			// let it through to the pending queue's key.
			for _, at := range []Time{-1, Time(math.NaN())} {
				mustPanic(t, fmt.Sprintf("time %v", at), func() { e.Schedule(0, at, nil) })
			}
			if s, ok := e.(*Simulator); ok {
				mustPanic(t, "restored NaN time", func() { s.ScheduleRestored(0, Time(math.NaN()), NoLP, 0, nil) })
			}
			mustPanic(t, "unknown LP", func() { e.Schedule(4, 0, nil) })
			mustPanic(t, "negative LP", func() { e.Schedule(-1, 0, nil) })

			e.Schedule(2, 0.5, "a")
			e.Schedule(0, 0.25, "b")
			e.Schedule(3, 0.75, "c")
			var got []string
			e.ForEachBootstrap(func(dst LPID, at Time, data any) {
				got = append(got, fmt.Sprintf("%d@%g:%v", dst, at, data))
			})
			if s := strings.Join(got, " "); s != "2@0.5:a 0@0.25:b 3@0.75:c" {
				t.Fatalf("bootstrap order %q", s)
			}

			e.DropBootstrap()
			e.ForEachBootstrap(func(LPID, Time, any) { t.Fatal("bootstrap survived DropBootstrap") })
			e.Schedule(1, 0.5, "d")
			if boot := tableOf(t, e).boot; len(boot) != 1 || boot[0].seq != 0 {
				t.Fatalf("DropBootstrap did not reset the sequence: %d events, first seq %d", len(boot), boot[0].seq)
			}

			e.ForEachLP(func(lp *LP) {
				lp.Handler = funcHandler{forward: func(*LP, *Event) {}, reverse: func(*LP, *Event) {}}
			})
			st, err := e.Run()
			if err != nil {
				t.Fatal(err)
			}
			if st.Committed != 1 {
				t.Fatalf("committed %d events, want the one bootstrap event", st.Committed)
			}
			mustPanic(t, "Schedule after Run", func() { e.Schedule(0, 1, nil) })
			mustPanic(t, "DropBootstrap after Run", func() { e.DropBootstrap() })
			if _, err := e.Run(); err == nil {
				t.Fatal("second Run accepted")
			}
		})
	}
	if _, err := NewEngine("nonesuch", Config{NumLPs: 4, EndTime: 10}, 1); err == nil {
		t.Fatal("unknown engine kind accepted")
	}
}

// TestEngineStatsIdentities holds every engine's Stats to the same
// identities: the derived rates are the ratios of the totals they are
// derived from, and where an engine reports per-PE records the totals are
// exactly their fold.
func TestEngineStatsIdentities(t *testing.T) {
	for _, kind := range EngineKinds() {
		t.Run(string(kind), func(t *testing.T) {
			const numLPs = 32
			e, err := NewEngine(kind, Config{NumLPs: numLPs, NumPEs: 2, NumKPs: 4, EndTime: 30, Seed: 5}, 0.001)
			if err != nil {
				t.Fatal(err)
			}
			e.ForEachLP(func(lp *LP) {
				lp.Handler = stressModel{numLPs: numLPs}
				lp.State = &stressState{}
			})
			for i := 0; i < numLPs; i++ {
				e.Schedule(LPID(i), Time(0.001*float64(i+1)), &stressMsg{TTL: 12})
			}
			st, err := e.Run()
			if err != nil {
				t.Fatal(err)
			}
			if st.Committed == 0 || st.Processed < st.Committed || st.Wall <= 0 {
				t.Fatalf("degenerate run: committed %d, processed %d, wall %v", st.Committed, st.Processed, st.Wall)
			}
			if want := float64(st.Committed) / float64(st.Processed); st.Efficiency != want {
				t.Errorf("Efficiency %g, want Committed/Processed = %g", st.Efficiency, want)
			}
			if want := float64(st.Committed) / st.Wall.Seconds(); st.EventRate != want {
				t.Errorf("EventRate %g, want Committed/Wall = %g", st.EventRate, want)
			}
			if want := float64(st.PoolHits) / float64(st.PoolHits+st.PoolMisses); st.PoolHitRate != want {
				t.Errorf("PoolHitRate %g, want PoolHits/(PoolHits+PoolMisses) = %g", st.PoolHitRate, want)
			}
			if st.BatchesFlushed > 0 {
				if want := float64(st.BatchedMessages) / float64(st.BatchesFlushed); st.AvgBatchSize != want {
					t.Errorf("AvgBatchSize %g, want BatchedMessages/BatchesFlushed = %g", st.AvgBatchSize, want)
				}
			}
			if len(st.PEs) == 0 {
				return
			}
			if len(st.PEs) != st.NumPEs {
				t.Fatalf("%d PE records for %d PEs", len(st.PEs), st.NumPEs)
			}
			var sum Counters
			for i := range st.PEs {
				sum.add(&st.PEs[i].Counters)
			}
			if sum != st.Counters {
				t.Errorf("totals are not the fold of the PE records:\n got %+v\nwant %+v", st.Counters, sum)
			}
		})
	}
}

// TestPlacementOutOfRange: a KPOfLP or PEOfKP that returns an out-of-range
// value is a configuration error on every engine, never a panic.
func TestPlacementOutOfRange(t *testing.T) {
	zero := func(int) int { return 0 }
	seven := func(int) int { return 7 }
	minus := func(int) int { return -1 }
	bad := map[string]Config{
		"KPOfLP high": {KPOfLP: seven, PEOfKP: zero},
		"KPOfLP low":  {KPOfLP: minus, PEOfKP: zero},
		"PEOfKP high": {KPOfLP: zero, PEOfKP: seven},
		"PEOfKP low":  {KPOfLP: zero, PEOfKP: minus},
	}
	for _, kind := range EngineKinds() {
		for name, cfg := range bad {
			cfg.NumLPs, cfg.NumKPs, cfg.NumPEs, cfg.EndTime = 4, 2, 2, 10
			func() {
				defer func() {
					if r := recover(); r != nil {
						t.Errorf("%s %s: panicked: %v", kind, name, r)
					}
				}()
				if _, err := NewEngine(kind, cfg, 1); err == nil || !strings.Contains(err.Error(), "out of range") {
					t.Errorf("%s %s: err = %v, want out of range", kind, name, err)
				}
			}()
		}
	}
}

// TestPlacementTable: every engine's placement table agrees, LP by LP, with
// the mapping its Config resolves to — the block tiling on a square LP
// count, contiguous runs otherwise, and caller overrides — and each LP
// record executes on, and draws from the pool of, the PE the table names.
func TestPlacementTable(t *testing.T) {
	block := topology.NewBlockMapping(16, 16, 2)
	cases := []struct {
		name    string
		cfg     Config
		kp, pe  func(int) int
		wantKPs int
		wantPEs int
	}{
		{"block", Config{NumLPs: 256, NumKPs: 16, NumPEs: 2}, block.KPOfLP, block.PEOfKP, 16, 2},
		{"contiguous", Config{NumLPs: 90, NumKPs: 8, NumPEs: 2},
			func(lp int) int { return lp * 8 / 90 }, func(kp int) int { return kp * 2 / 8 }, 8, 2},
		{"custom", Config{NumLPs: 30, NumKPs: 6, NumPEs: 3,
			KPOfLP: func(lp int) int { return lp * 7 % 6 }, PEOfKP: func(kp int) int { return (5 - kp) % 3 }},
			func(lp int) int { return lp * 7 % 6 }, func(kp int) int { return (5 - kp) % 3 }, 6, 3},
	}
	for _, tc := range cases {
		for _, kind := range EngineKinds() {
			t.Run(tc.name+"/"+string(kind), func(t *testing.T) {
				cfg := tc.cfg
				cfg.EndTime = 1
				e, err := NewEngine(kind, cfg, 1)
				if err != nil {
					t.Fatal(err)
				}
				place := tableOf(t, e).place
				if len(place) != cfg.NumLPs {
					t.Fatalf("placement table has %d entries for %d LPs", len(place), cfg.NumLPs)
				}
				for i, p := range place {
					kp := tc.kp(i)
					if want := (lpPlace{kp: int32(kp), pe: int32(tc.pe(kp))}); p != want {
						t.Fatalf("LP %d placed at %+v, want %+v", i, p, want)
					}
					lp := e.LP(LPID(i))
					switch e := e.(type) {
					case *Simulator:
						if len(e.kps) != tc.wantKPs || len(e.pes) != tc.wantPEs {
							t.Fatalf("%d KPs on %d PEs, want %d on %d", len(e.kps), len(e.pes), tc.wantKPs, tc.wantPEs)
						}
						pe := e.pes[p.pe]
						if lp.eng != pe || lp.pool != &pe.pool {
							t.Fatalf("LP %d does not execute on PE %d", i, p.pe)
						}
						if e.kps[p.kp].id != int(p.kp) || !containsKP(pe.kps, e.kps[p.kp]) {
							t.Fatalf("KP %d is not one of PE %d's", p.kp, p.pe)
						}
					case *Conservative:
						if pe := e.pes[p.pe]; lp.eng != pe || lp.pool != &pe.pool {
							t.Fatalf("LP %d does not execute on worker %d", i, p.pe)
						}
					case *Sequential:
						if lp.eng != e || lp.pool != &e.pool {
							t.Fatalf("LP %d does not execute on the sequential engine", i)
						}
					}
				}
			})
		}
	}
}

func containsKP(kps []*KP, kp *KP) bool {
	for _, k := range kps {
		if k == kp {
			return true
		}
	}
	return false
}

// TestSendToUnknownLP: a Send whose destination is not an LP of the run —
// below 0 or at NumLPs — fails the run with "Send to unknown LP" on every
// engine, before the event is made: a delay below the conservative
// engine's lookahead is not reported as a lookahead violation instead.
func TestSendToUnknownLP(t *testing.T) {
	const numLPs = 4
	for _, kind := range EngineKinds() {
		for _, c := range []struct {
			dst   LPID
			delay Time
		}{{-1, 1}, {numLPs, 1}, {-1, 0.5}, {numLPs, 0.5}} {
			e, err := NewEngine(kind, Config{NumLPs: numLPs, NumPEs: 2, EndTime: 10}, 1)
			if err != nil {
				t.Fatal(err)
			}
			e.ForEachLP(func(lp *LP) {
				lp.Handler = funcHandler{
					forward: func(lp *LP, ev *Event) { lp.Send(c.dst, c.delay, nil) },
					reverse: func(*LP, *Event) {},
				}
			})
			e.Schedule(0, 0.5, nil)
			_, err = e.Run()
			if err == nil || !strings.Contains(err.Error(), "Send to unknown LP") {
				t.Errorf("%s: Send to %d after %g: got %v, want a Send to unknown LP error", kind, c.dst, c.delay, err)
			}
			if n := e.LP(0).sendSeq; n != 0 {
				t.Errorf("%s: Send to %d after %g numbered %d events before failing", kind, c.dst, c.delay, n)
			}
		}
	}
}

// TestRunLeaksNoGoroutine: Run on every engine, whether it ends cleanly or
// fails on a handler panic, leaves no goroutine behind once it returns.
func TestRunLeaksNoGoroutine(t *testing.T) {
	const numLPs = 8
	for _, kind := range EngineKinds() {
		for _, panics := range []bool{false, true} {
			e, err := NewEngine(kind, Config{NumLPs: numLPs, NumPEs: 2, EndTime: 50}, 1)
			if err != nil {
				t.Fatal(err)
			}
			e.ForEachLP(func(lp *LP) {
				lp.Handler = funcHandler{
					forward: func(lp *LP, ev *Event) {
						if panics && lp.Now() > 20 {
							panic("seeded handler panic")
						}
						lp.Send((lp.ID+1)%numLPs, 1, nil)
					},
					reverse: func(*LP, *Event) {},
				}
			})
			for i := range numLPs {
				e.Schedule(LPID(i), 0.5, nil)
			}
			before := runtime.NumGoroutine()
			if _, err := e.Run(); (err != nil) != panics {
				t.Fatalf("%s panics=%v: Run returned %v", kind, panics, err)
			}
			// A goroutine that has signalled completion may still be on its
			// way out: poll, with a bound.
			deadline := time.Now().Add(5 * time.Second)
			for runtime.NumGoroutine() > before {
				if time.Now().After(deadline) {
					t.Fatalf("%s panics=%v: %d goroutines after Run, %d before", kind, panics, runtime.NumGoroutine(), before)
				}
				time.Sleep(time.Millisecond)
			}
		}
	}
}

// TestLPStreamsSeededInOrder: seeding each LP's stream from its
// predecessor's gives every LP exactly the stream SeedStream gives its
// stream ID, on every engine, for ten thousand LPs under seeds 0, 1 and
// 2^63+5, and under a seed whose stream IDs wrap past 2^64 mid-table.
func TestLPStreamsSeededInOrder(t *testing.T) {
	// inv is the inverse of streamID's odd multiplier modulo 2^64 (Newton
	// iteration doubles the correct low bits each step).
	inv := uint64(0x9E3779B1)
	for i := 0; i < 5; i++ {
		inv *= 2 - 0x9E3779B1*inv
	}
	wrap := uint64(1<<64-5) * inv // streamID(wrap, 5) == 0
	if streamID(wrap, 5) != 0 {
		t.Fatalf("streamID(%d, 5) = %d, want 0", wrap, streamID(wrap, 5))
	}
	const numLPs = 10_000
	for _, seed := range []uint64{0, 1, 1<<63 + 5, wrap} {
		for _, kind := range EngineKinds() {
			e, err := NewEngine(kind, Config{NumLPs: numLPs, NumPEs: 2, EndTime: 1, Seed: seed}, 1)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < numLPs; i++ {
				var want rng.Stream
				want.SeedStream(streamID(seed, i))
				if got := e.LP(LPID(i)).rng; got != want {
					t.Fatalf("%s seed %d: LP %d stream %v, want %v", kind, seed, i, got.State(), want.State())
				}
			}
		}
	}
}
