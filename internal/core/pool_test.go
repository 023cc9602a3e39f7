package core

import (
	"reflect"
	"sync/atomic"
	"testing"
	"unsafe"
)

// TestEventPoolReuse is the freelist contract: LIFO reuse of the same
// backing Event, a generation bump per free, scrubbed bookkeeping, a sent
// list whose first two entries stay inside the event and whose grown
// array survives recycling, and the payload moved to the spare stack.
func TestEventPoolReuse(t *testing.T) {
	p := eventPool{stats: new(Counters)}
	ev := p.get()
	if p.stats.PoolMisses != 1 || p.stats.PoolHits != 0 {
		t.Fatalf("first get: hits=%d misses=%d", p.stats.PoolHits, p.stats.PoolMisses)
	}
	if ev.first != nil || len(ev.more) != 0 || cap(ev.more) != len(ev.moreBuf) {
		t.Fatalf("fresh event: first=%v more len=%d cap=%d, want nil, 0 and %d",
			ev.first, len(ev.more), cap(ev.more), len(ev.moreBuf))
	}
	a, b, c := p.get(), p.get(), p.get()
	ev.addSent(a)
	if ev.first != a || ev.hasMore {
		t.Fatal("one send did not stay in first")
	}
	ev.addSent(b)
	if !ev.hasMore || &ev.more[0] != &ev.moreBuf[0] {
		t.Fatal("two sends left the inline buffer")
	}
	ev.addSent(c)
	cap0 := cap(ev.more)
	ev.state = statePending
	ev.Data = "payload"
	gen := ev.gen

	p.put(ev)
	if ev.state != stateFree || ev.gen != gen+1 {
		t.Fatalf("after put: state=%d gen=%d (was %d)", ev.state, ev.gen, gen)
	}
	if ev.Data != nil || ev.first != nil || ev.hasMore || len(ev.more) != 0 || ev.more[:1][0] != nil {
		t.Fatalf("put did not scrub: Data=%v first=%v more=%v", ev.Data, ev.first, ev.more[:cap0])
	}

	ev2 := p.get()
	if ev2 != ev {
		t.Fatal("LIFO pool did not reuse the freed event")
	}
	if ev2.state != stateInit {
		t.Fatalf("recycled event state = %d, want stateInit", ev2.state)
	}
	if cap(ev2.more) != cap0 {
		t.Fatalf("more capacity lost across recycle: %d -> %d", cap0, cap(ev2.more))
	}
	if p.stats.PoolHits != 4 || p.stats.PoolMisses != 1 || p.stats.EventsRecycled != 1 {
		t.Fatalf("counters: hits=%d misses=%d recycled=%d", p.stats.PoolHits, p.stats.PoolMisses, p.stats.EventsRecycled)
	}
	if p.stats.PoolLive != 4 || p.stats.PoolLivePeak != 4 {
		t.Fatalf("live accounting: live=%d peak=%d", p.stats.PoolLive, p.stats.PoolLivePeak)
	}
	if got := p.spare(); got != "payload" || p.stats.PayloadsRecycled != 1 {
		t.Fatalf("spare = %v (payloads=%d), want the freed event's payload", got, p.stats.PayloadsRecycled)
	}
	if got := p.spare(); got != nil || p.stats.PayloadsRecycled != 1 {
		t.Fatalf("empty spare stack returned %v (payloads=%d)", got, p.stats.PayloadsRecycled)
	}
}

// TestEventPoolSlabs: a miss is a slab refill, so slabEvents gets cost one
// allocation, events of one slab are neighbours in memory, and bootstrap
// carving draws on the same slab without counting as a Send.
func TestEventPoolSlabs(t *testing.T) {
	p := eventPool{stats: new(Counters)}
	boot := p.carve()
	if p.stats.PoolHits != 0 || p.stats.PoolMisses != 0 || p.stats.PoolLive != 0 {
		t.Fatalf("carve touched the Send counters: hits=%d misses=%d live=%d", p.stats.PoolHits, p.stats.PoolMisses, p.stats.PoolLive)
	}
	prev := boot
	for i := 1; i < slabEvents; i++ {
		ev := p.get()
		if uintptr(unsafe.Pointer(ev))-uintptr(unsafe.Pointer(prev)) != unsafe.Sizeof(Event{}) {
			t.Fatalf("get %d is not the slab neighbour of the previous event", i)
		}
		prev = ev
	}
	if p.stats.PoolMisses != 0 || p.stats.PoolHits != slabEvents-1 {
		t.Fatalf("within the carved slab: hits=%d misses=%d", p.stats.PoolHits, p.stats.PoolMisses)
	}
	p.get()
	if p.stats.PoolMisses != 1 {
		t.Fatalf("get past the slab: misses=%d, want 1", p.stats.PoolMisses)
	}
	if n := testing.AllocsPerRun(10, func() {
		for i := 0; i < slabEvents; i++ {
			p.get()
		}
	}); n != 1 {
		t.Fatalf("%d gets allocated %v times, want 1 slab", slabEvents, n)
	}
}

// TestSpareRetentionBounded: a payload is kept only while the pool holds
// fewer spares than free events, so a model that never calls LP.Spare pins
// at most one payload per pooled event — the free list's high-water mark.
func TestSpareRetentionBounded(t *testing.T) {
	p := eventPool{stats: new(Counters)}
	const n = 8
	evs := make([]*Event, n)
	fill := func() {
		for i := range evs {
			evs[i] = p.get()
			evs[i].Data = i
		}
	}
	fill()
	for _, ev := range evs {
		p.put(ev)
		if len(p.spares) > len(p.free) {
			t.Fatalf("after put: %d spares for %d free events", len(p.spares), len(p.free))
		}
	}
	if len(p.spares) != n {
		t.Fatalf("spares = %d, want %d", len(p.spares), n)
	}
	for round := 0; round < 4; round++ {
		fill() // no Spare calls: the stack stays full while the list drains
		for _, ev := range evs {
			p.put(ev)
		}
		if len(p.spares) != n {
			t.Fatalf("round %d: spares grew to %d past the free list's high-water mark %d", round, len(p.spares), n)
		}
	}
}

// TestEventPoolDoubleFreePanics: freeing the same incarnation twice is the
// classic freelist corruption and must die immediately.
func TestEventPoolDoubleFreePanics(t *testing.T) {
	p := eventPool{stats: new(Counters)}
	ev := p.get()
	ev.state = statePending
	p.put(ev)
	defer func() {
		if recover() == nil {
			t.Fatal("double free did not panic")
		}
	}()
	p.put(ev)
}

// TestUseAfterFreeGuards covers the paranoid-mode tripwires: a pooled
// (stateFree) event must be rejected by insert, execute, cancellation and
// the GVT-time queue scan.
func TestUseAfterFreeGuards(t *testing.T) {
	s, err := New(Config{NumLPs: 2, NumPEs: 1, NumKPs: 1, EndTime: 10})
	if err != nil {
		t.Fatal(err)
	}
	s.SetParanoid(0)
	pe := s.pes[0]
	// Pool-issued, slab-resident events, freed the way the kernel frees
	// them: the tripwires key on what put stamps, not on how the event was
	// allocated.
	free := func() *Event {
		ev := pe.pool.get()
		ev.recvTime, ev.dst, ev.src = 1, 0, 0
		gen := ev.gen
		pe.pool.put(ev)
		if ev.state != stateFree || ev.gen != gen+1 {
			t.Fatalf("put left state=%d gen=%d (was %d)", ev.state, ev.gen, gen)
		}
		return ev
	}
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s accepted a stateFree event", name)
			}
		}()
		fn()
	}
	mustPanic("insert", func() { pe.insert(free()) })
	mustPanic("execute", func() { pe.execute(free()) })
	mustPanic("cancelLocal", func() { pe.cancelLocal(free()) })

	// A freed event that somehow stays queued is caught by the invariant
	// scan even when no operation touches it.
	ev := free()
	pe.pending.Push(ev)
	if err := pe.checkInvariants(0); err == nil {
		t.Fatal("invariant scan missed a pooled event in the pending queue")
	}
}

// TestPoolStatsAcrossEngines: all three executors recycle events and
// report coherent pool counters.
func TestPoolStatsAcrossEngines(t *testing.T) {
	base := Config{NumLPs: 32, EndTime: 30, Seed: 5}
	ttl := 12

	check := func(name string, st *Stats, pools int64) {
		t.Helper()
		// A miss is a slab refill: the slabs allocated cover the Sends and
		// the 32 bootstrap events with at most one part-used slab per pool.
		if st.PoolMisses*slabEvents > st.PoolHits+st.PoolMisses+32+pools*slabEvents {
			t.Errorf("%s: %d misses for %d gets: not one allocation per %d events",
				name, st.PoolMisses, st.PoolHits+st.PoolMisses, slabEvents)
		}
		if st.EventsRecycled == 0 {
			t.Errorf("%s: no events recycled", name)
		}
		if st.PoolHits == 0 {
			t.Errorf("%s: pool never reissued an event (hits=0)", name)
		}
		total := st.PoolHits + st.PoolMisses
		if total == 0 || st.PoolHitRate != float64(st.PoolHits)/float64(total) {
			t.Errorf("%s: hit rate %g inconsistent with hits=%d misses=%d",
				name, st.PoolHitRate, st.PoolHits, st.PoolMisses)
		}
		if st.PoolLivePeak <= 0 {
			t.Errorf("%s: PoolLivePeak = %d", name, st.PoolLivePeak)
		}
	}

	_, seqStats := runStressSequential(t, base, ttl)
	check("sequential", seqStats, 1)

	cfg := base
	cfg.NumPEs = 4
	cfg.NumKPs = 8
	_, parStats := runStressParallel(t, cfg, ttl, paranoid)
	check("parallel", parStats, 4)

	// Conservative engine, via the fixed-lookahead variant of the stress
	// model (delays are already >= 0.001).
	c, err := NewConservative(Config{NumLPs: 32, NumPEs: 4, EndTime: 30, Seed: 5}, 0.001)
	if err != nil {
		t.Fatal(err)
	}
	model := stressModel{numLPs: 32}
	c.ForEachLP(func(lp *LP) {
		lp.Handler = model
		lp.State = &stressState{}
	})
	for i := 0; i < 32; i++ {
		c.Schedule(LPID(i), Time(0.001*float64(i+1)), &stressMsg{TTL: ttl})
	}
	consStats, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	check("conservative", consStats, 4)
}

// spareMsg and foreignMsg are the payloads of the two handlers in the
// spare-payload fixture. freedOn is written by the handler's Commit — which
// runs on the destination PE immediately before the kernel frees the event
// — so a reissued payload says where it died; -1 until then (a cancelled
// event dies without a Commit).
type spareMsg struct {
	TTL      int
	PrevHash uint64
	freedOn  int
}

type foreignMsg struct {
	TTL      int
	PrevHash uint64
	freedOn  int
	_        [3]uint64 // a different size, so a confused reuse would corrupt
}

// spareTally is what the fixture's handlers observed, summed over PEs.
type spareTally struct {
	taken    atomic.Int64 // non-nil Spare results
	foreign  atomic.Int64 // of those, the other handler's type: dropped
	crossPE  atomic.Int64 // reissued on a PE other than the one that freed it
	uncommit atomic.Int64 // reissued payloads of cancelled events
}

// spareModel is the stress model written against LP.Spare. Even LPs send
// *spareMsg and odd LPs *foreignMsg, to uniformly random destinations, so
// every PE's spare stack holds both types and each handler regularly pops
// the other's.
type spareModel struct {
	numLPs int64
	tally  *spareTally
}

func (m spareModel) peOf(lp *LP) int {
	switch eng := lp.eng.(type) {
	case *PE:
		return eng.id
	case *consPE:
		return eng.id
	}
	return 0 // sequential engine: one pool
}

func (m spareModel) observe(lp *LP, sp any, foreign bool, freedOn int) {
	m.tally.taken.Add(1)
	if foreign {
		m.tally.foreign.Add(1)
	}
	switch {
	case freedOn < 0:
		m.tally.uncommit.Add(1)
	case freedOn != m.peOf(lp):
		m.tally.crossPE.Add(1)
	}
}

func (m spareModel) Forward(lp *LP, ev *Event) {
	st := lp.State.(*stressState)
	var ttl int
	switch msg := ev.Data.(type) {
	case *spareMsg:
		msg.PrevHash, ttl = st.Hash, msg.TTL
	case *foreignMsg:
		msg.PrevHash, ttl = st.Hash, msg.TTL
	}
	st.Hash = st.Hash*1099511628211 ^ uint64(ev.Src()+1)<<17 ^ uint64(ev.RecvTime()*1e6)
	st.Counter++
	if ttl == 0 {
		return
	}
	dst := LPID(lp.RandInt(0, m.numLPs-1))
	delay := Time(lp.RandExp(1.0)) + 0.001
	sp := lp.Spare()
	if lp.ID%2 == 0 {
		nm, ok := sp.(*spareMsg)
		if ok {
			m.observe(lp, sp, false, nm.freedOn)
		} else {
			if f, isForeign := sp.(*foreignMsg); isForeign {
				m.observe(lp, sp, true, f.freedOn)
			}
			nm = new(spareMsg)
		}
		*nm = spareMsg{TTL: ttl - 1, freedOn: -1}
		lp.Send(dst, delay, nm)
		return
	}
	nm, ok := sp.(*foreignMsg)
	if ok {
		m.observe(lp, sp, false, nm.freedOn)
	} else {
		if f, isForeign := sp.(*spareMsg); isForeign {
			m.observe(lp, sp, true, f.freedOn)
		}
		nm = new(foreignMsg)
	}
	*nm = foreignMsg{TTL: ttl - 1, freedOn: -1}
	lp.Send(dst, delay, nm)
}

func (m spareModel) Reverse(lp *LP, ev *Event) {
	st := lp.State.(*stressState)
	switch msg := ev.Data.(type) {
	case *spareMsg:
		st.Hash = msg.PrevHash
	case *foreignMsg:
		st.Hash = msg.PrevHash
	}
	st.Counter--
}

func (m spareModel) Commit(lp *LP, ev *Event) {
	switch msg := ev.Data.(type) {
	case *spareMsg:
		msg.freedOn = m.peOf(lp)
	case *foreignMsg:
		msg.freedOn = m.peOf(lp)
	}
}

// TestSparePayloads pins the payload half of the lifecycle on all three
// engines (run it under -race: a payload reissued on a PE that did not free
// it would be an unsynchronised hand-over). A payload freed on PE B is only
// ever reissued by a handler running on PE B; a spare of the other
// handler's type is dropped, not crashed on; every pool ends with no more
// spares than free events; Stats.PayloadsRecycled is the number of spares
// handlers were given; and the committed result is the plain stress
// model's, payload reuse and all.
func TestSparePayloads(t *testing.T) {
	const numLPs, ttl = 32, 24
	base := Config{NumLPs: numLPs, EndTime: 60, Seed: 3}
	install := func(h Host, tally *spareTally) {
		model := spareModel{numLPs: numLPs, tally: tally}
		h.ForEachLP(func(lp *LP) { lp.Handler = model; lp.State = &stressState{} })
		for i := 0; i < numLPs; i++ {
			if i%2 == 0 {
				h.Schedule(LPID(i), Time(0.001*float64(i+1)), &spareMsg{TTL: ttl, freedOn: -1})
			} else {
				h.Schedule(LPID(i), Time(0.001*float64(i+1)), &foreignMsg{TTL: ttl, freedOn: -1})
			}
		}
	}
	check := func(name string, tally *spareTally, st *Stats, pools []*eventPool) {
		t.Helper()
		if tally.taken.Load() == 0 || tally.foreign.Load() == 0 {
			t.Errorf("%s: fixture never reused a payload (taken=%d foreign=%d)",
				name, tally.taken.Load(), tally.foreign.Load())
		}
		if n := tally.crossPE.Load(); n != 0 {
			t.Errorf("%s: %d payloads reissued on a PE other than the one that freed them", name, n)
		}
		if st.PayloadsRecycled != tally.taken.Load() {
			t.Errorf("%s: stats report %d payloads recycled, handlers were given %d",
				name, st.PayloadsRecycled, tally.taken.Load())
		}
		for i, p := range pools {
			if len(p.spares) > len(p.free) {
				t.Errorf("%s: pool %d retains %d spares for %d free events", name, i, len(p.spares), len(p.free))
			}
		}
	}

	want, _ := runStressSequential(t, base, ttl)

	q, err := NewSequential(base)
	if err != nil {
		t.Fatal(err)
	}
	var seqTally spareTally
	install(q, &seqTally)
	st, err := q.Run()
	if err != nil {
		t.Fatal(err)
	}
	check("sequential", &seqTally, st, []*eventPool{&q.pool})
	if got := snapshotStress(numLPs, q.LP); !reflect.DeepEqual(got, want) {
		t.Error("sequential: payload reuse changed the committed result")
	}

	cfg := base
	cfg.NumPEs, cfg.NumKPs = 3, 6
	cfg.BatchSize, cfg.GVTInterval = 4, 2
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	paranoid(s)
	armFaults(t, &Faults{Seed: 9, RollbackEvery: 3, RollbackDepth: 6, ShuffleMail: true})(s)
	var parTally spareTally
	install(s, &parTally)
	if st, err = s.Run(); err != nil {
		t.Fatal(err)
	}
	var pools []*eventPool
	for _, pe := range s.pes {
		pools = append(pools, &pe.pool)
	}
	check("parallel", &parTally, st, pools)
	if st.RolledBackEvents == 0 || parTally.uncommit.Load() == 0 {
		t.Errorf("parallel: no cancelled event's payload was reissued (rolledBack=%d uncommitted=%d)",
			st.RolledBackEvents, parTally.uncommit.Load())
	}
	if got := snapshotStress(numLPs, s.LP); !reflect.DeepEqual(got, want) {
		t.Error("parallel: payload reuse changed the committed result")
	}

	c, err := NewConservative(Config{NumLPs: numLPs, NumPEs: 3, EndTime: 60, Seed: 3}, 0.001)
	if err != nil {
		t.Fatal(err)
	}
	var consTally spareTally
	install(c, &consTally)
	if st, err = c.Run(); err != nil {
		t.Fatal(err)
	}
	pools = pools[:0]
	for _, pe := range c.pes {
		pools = append(pools, &pe.pool)
	}
	check("conservative", &consTally, st, pools)
	if got := snapshotStress(numLPs, c.LP); !reflect.DeepEqual(got, want) {
		t.Error("conservative: payload reuse changed the committed result")
	}
}

// TestCancellationRacesRollbackAcrossPEs is the pooling regression test for
// the nastiest lifecycle interleaving: anti-messages crossing PEs while the
// destination is itself rolling back under injected faults, with mailbox
// delivery order shuffled. Every cancelled event is freed into the
// destination pool; if a cancellation could ever chase an already-recycled
// event, paranoid mode panics and the committed trajectory diverges from
// the sequential reference.
func TestCancellationRacesRollbackAcrossPEs(t *testing.T) {
	base := Config{NumLPs: 64, EndTime: 40, Seed: 17}
	want, _ := runStressSequential(t, base, 16)

	cfg := base
	cfg.NumPEs = 4
	cfg.NumKPs = 16
	cfg.BatchSize = 4
	cfg.GVTInterval = 2
	got, st := runStressParallel(t, cfg, 16, paranoid, armFaults(t, &Faults{
		Seed: 23, RollbackEvery: 2, RollbackDepth: 6,
		ShuffleMail: true, GVTDelay: 2,
	}))
	if !reflect.DeepEqual(got, want) {
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("LP %d diverged with pooling under cancellation/rollback races: got %+v want %+v",
					i, got[i], want[i])
			}
		}
	}
	if st.RolledBackEvents == 0 || st.MailSent == 0 {
		t.Fatalf("test did not exercise the race: rolledBack=%d mailSent=%d",
			st.RolledBackEvents, st.MailSent)
	}
	if st.EventsRecycled == 0 {
		t.Fatal("no events recycled under rollback stress")
	}
}
