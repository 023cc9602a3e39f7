package routing

import (
	"math/rand"
	"testing"

	"repro/internal/rng"
	"repro/internal/topology"
)

// ctxWith builds a decision context backed by a real reversible stream.
func ctxWith(st *rng.Stream, prio State, free, good topology.DirSet, hr topology.Direction) *Ctx {
	return &Ctx{
		Prio:    prio,
		Free:    free,
		Good:    good,
		HomeRun: hr,
		N:       8,
		Rand:    st.Uniform,
		RandInt: st.Integer,
	}
}

func set(dirs ...topology.Direction) topology.DirSet {
	var s topology.DirSet
	for _, d := range dirs {
		s = s.Add(d)
	}
	return s
}

var allDirs = set(topology.North, topology.East, topology.South, topology.West)

// TestAllPoliciesChooseFreeLinks: fuzz every policy over random contexts;
// the chosen direction must always be free, and Deflected must be set iff
// no free good link was taken.
func TestAllPoliciesChooseFreeLinks(t *testing.T) {
	st := rng.NewStream(1)
	r := rand.New(rand.NewSource(2))
	for _, name := range Names() {
		pol, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for trial := 0; trial < 5000; trial++ {
			free := topology.DirSet(r.Intn(15) + 1) // non-empty subset
			good := topology.DirSet(r.Intn(16))
			hr := topology.Direction(r.Intn(4))
			if !good.Empty() {
				hr = good.Nth(r.Intn(good.Count()))
			}
			prio := State(r.Intn(4))
			dec := pol.Route(ctxWith(st, prio, free, good, hr))
			if !free.Has(dec.Dir) {
				t.Fatalf("%s: chose non-free dir %v (free %v)", name, dec.Dir, free)
			}
			fg := free & good
			if dec.Deflected && good.Has(dec.Dir) && prio != Excited && prio != Running {
				t.Fatalf("%s: flagged deflected but took good link", name)
			}
			if !dec.Deflected && !fg.Empty() && !good.Has(dec.Dir) {
				t.Fatalf("%s: took bad link %v without deflection flag (free %v good %v)",
					name, dec.Dir, free, good)
			}
		}
	}
}

// TestBuschStateMachine checks every legal transition of §1.2.4.
func TestBuschStateMachine(t *testing.T) {
	st := rng.NewStream(3)
	pol := NewBusch()

	t.Run("excited granted becomes running", func(t *testing.T) {
		dec := pol.Route(ctxWith(st, Excited, allDirs, set(topology.East), topology.East))
		if dec.Dir != topology.East || dec.NewPrio != Running || dec.Deflected {
			t.Fatalf("got %+v", dec)
		}
	})
	t.Run("excited deflected returns to active", func(t *testing.T) {
		// Home-run link East is busy.
		dec := pol.Route(ctxWith(st, Excited, set(topology.North, topology.South), set(topology.East), topology.East))
		if dec.NewPrio != Active || !dec.Deflected {
			t.Fatalf("got %+v", dec)
		}
	})
	t.Run("running keeps its path", func(t *testing.T) {
		dec := pol.Route(ctxWith(st, Running, allDirs, set(topology.South), topology.South))
		if dec.Dir != topology.South || dec.NewPrio != Running || dec.Deflected {
			t.Fatalf("got %+v", dec)
		}
	})
	t.Run("running deflected while turning drops to active", func(t *testing.T) {
		dec := pol.Route(ctxWith(st, Running, set(topology.West), set(topology.South), topology.South))
		if dec.Dir != topology.West || dec.NewPrio != Active || !dec.Deflected {
			t.Fatalf("got %+v", dec)
		}
	})
	t.Run("sleeping routes to good links", func(t *testing.T) {
		for i := 0; i < 50; i++ {
			dec := pol.Route(ctxWith(st, Sleeping, allDirs, set(topology.North, topology.East), topology.East))
			if dec.Deflected || (dec.Dir != topology.North && dec.Dir != topology.East) {
				t.Fatalf("got %+v", dec)
			}
			if dec.NewPrio != Sleeping && dec.NewPrio != Active {
				t.Fatalf("illegal sleeping transition to %v", dec.NewPrio)
			}
		}
	})
	t.Run("active deflection may excite", func(t *testing.T) {
		for i := 0; i < 50; i++ {
			dec := pol.Route(ctxWith(st, Active, set(topology.West), set(topology.East), topology.East))
			if !dec.Deflected {
				t.Fatalf("got %+v", dec)
			}
			if dec.NewPrio != Active && dec.NewPrio != Excited {
				t.Fatalf("illegal active transition to %v", dec.NewPrio)
			}
		}
	})
	t.Run("active advancing never excites", func(t *testing.T) {
		for i := 0; i < 200; i++ {
			dec := pol.Route(ctxWith(st, Active, allDirs, set(topology.East), topology.East))
			if dec.NewPrio != Active {
				t.Fatalf("advancing active changed state: %+v", dec)
			}
		}
	})
}

// TestBuschUpgradeProbabilities: the Sleeping→Active rate must track
// 1/(24n) and the deflected Active→Excited rate 1/(16n) statistically.
func TestBuschUpgradeProbabilities(t *testing.T) {
	st := rng.NewStream(9)
	pol := NewBusch()
	const trials = 400000
	n := 8.0

	upgrades := 0
	for i := 0; i < trials; i++ {
		dec := pol.Route(ctxWith(st, Sleeping, allDirs, set(topology.East), topology.East))
		if dec.NewPrio == Active {
			upgrades++
		}
	}
	want := 1.0 / (24 * n)
	got := float64(upgrades) / trials
	if got < want/2 || got > want*2 {
		t.Errorf("sleeping upgrade rate %v, want ~%v", got, want)
	}

	excites := 0
	for i := 0; i < trials; i++ {
		dec := pol.Route(ctxWith(st, Active, set(topology.West), set(topology.East), topology.East))
		if dec.NewPrio == Excited {
			excites++
		}
	}
	want = 1.0 / (16 * n)
	got = float64(excites) / trials
	if got < want/2 || got > want*2 {
		t.Errorf("active excite rate %v, want ~%v", got, want)
	}
}

// TestGreedyRandomPreservesPriority: the baseline never touches priority.
func TestGreedyRandomPreservesPriority(t *testing.T) {
	st := rng.NewStream(4)
	pol := NewGreedyRandom()
	for _, prio := range []State{Sleeping, Active, Excited, Running} {
		dec := pol.Route(ctxWith(st, prio, allDirs, set(topology.North), topology.North))
		if dec.NewPrio != prio {
			t.Fatalf("priority changed from %v to %v", prio, dec.NewPrio)
		}
	}
}

// TestDimOrderDeterministic: identical context must give identical output
// with no randomness consumed.
func TestDimOrderDeterministic(t *testing.T) {
	st := rng.NewStream(5)
	pol := NewDimOrder()
	before := st.Draws()
	a := pol.Route(ctxWith(st, Active, allDirs, set(topology.West, topology.South), topology.West))
	b := pol.Route(ctxWith(st, Active, allDirs, set(topology.West, topology.South), topology.West))
	if a != b {
		t.Fatalf("nondeterministic: %+v vs %+v", a, b)
	}
	if st.Draws() != before {
		t.Fatal("DimOrder consumed randomness")
	}
	if a.Dir != topology.West {
		t.Fatalf("column-first preference broken: %+v", a)
	}
}

// TestMaxAdvanceDeflectsOpposite: when every good link is busy but its
// opposite is free, the deflection goes opposite a good direction.
func TestMaxAdvanceDeflectsOpposite(t *testing.T) {
	st := rng.NewStream(6)
	pol := NewMaxAdvance()
	// Good: East; free: West and North. Expect West (opposite of East).
	for i := 0; i < 50; i++ {
		dec := pol.Route(ctxWith(st, Sleeping, set(topology.West, topology.North), set(topology.East), topology.East))
		if !dec.Deflected || dec.Dir != topology.West {
			t.Fatalf("got %+v", dec)
		}
	}
}

// TestByName covers the registry.
func TestByName(t *testing.T) {
	for _, name := range Names() {
		pol, err := ByName(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if pol.Name() != name {
			t.Fatalf("registry name %q != policy name %q", name, pol.Name())
		}
	}
	if pol, err := ByName(""); err != nil || pol.Name() != "busch" {
		t.Fatal("empty name must default to busch")
	}
	if _, err := ByName("nope"); err == nil {
		t.Fatal("unknown policy accepted")
	}
}

// TestStateString covers the state names used in reports.
func TestStateString(t *testing.T) {
	names := map[State]string{Sleeping: "Sleeping", Active: "Active", Excited: "Excited", Running: "Running"}
	for s, want := range names {
		if s.String() != want {
			t.Errorf("State(%d).String() = %q", s, s.String())
		}
	}
}

// TestRouteOnReusedCtxAllocatesNothing: a policy called through the Policy
// interface on a context its caller keeps and refills, with the random
// sources bound beforehand, must not allocate — the shape the hot-potato
// model's per-LP scratch relies on, for every priority state.
func TestRouteOnReusedCtxAllocatesNothing(t *testing.T) {
	st := rng.NewStream(3)
	ctx := ctxWith(st, Sleeping, allDirs, set(topology.East), topology.East)
	for _, name := range Names() {
		pol, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		prio := Sleeping
		avg := testing.AllocsPerRun(1000, func() {
			ctx.Prio = prio
			ctx.Free = allDirs.Remove(topology.Direction(prio))
			ctx.Good = set(topology.East, topology.South)
			ctx.HomeRun = topology.East
			pol.Route(ctx)
			prio = (prio + 1) % NumStates
		})
		if avg != 0 {
			t.Errorf("%s: %v allocations per Route on a reused Ctx", name, avg)
		}
	}
}
