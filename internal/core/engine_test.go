package core

import (
	"fmt"
	"math"
	"strings"
	"testing"
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
