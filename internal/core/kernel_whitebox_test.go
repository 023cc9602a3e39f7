package core

// White-box tests that drive the kernel's rollback, cancellation and
// fossil-collection machinery directly, without relying on scheduling
// races to trigger the paths.

import (
	"testing"
)

// recState records execution effects so tests can observe forward and
// reverse processing precisely.
type recState struct {
	Log []Time // receive times of events currently "applied"
}

// recMsg saves nothing — the log is undone by truncation, which is valid
// because Reverse runs in exact LIFO order.
type recMsg struct {
	Fanout []fan // events to send on execution
}

type fan struct {
	dst   LPID
	delay Time
}

// recModel appends to the log on Forward, truncates on Reverse.
type recModel struct{}

func (recModel) Forward(lp *LP, ev *Event) {
	st := lp.State.(*recState)
	st.Log = append(st.Log, ev.RecvTime())
	if m, ok := ev.Data.(*recMsg); ok && m != nil {
		for _, f := range m.Fanout {
			lp.Send(f.dst, f.delay, &recMsg{})
		}
	}
}

func (recModel) Reverse(lp *LP, ev *Event) {
	st := lp.State.(*recState)
	st.Log = st.Log[:len(st.Log)-1]
}

// build2LPKernel builds a 1-PE kernel with two LPs on separate KPs so
// straggler handling is observable per KP.
func build2LPKernel(t *testing.T) *Simulator {
	t.Helper()
	s, err := New(Config{
		NumLPs:  2,
		NumPEs:  1,
		NumKPs:  2,
		EndTime: 1000,
		KPOfLP:  func(lp int) int { return lp },
		PEOfKP:  func(kp int) int { return 0 },
	})
	if err != nil {
		t.Fatal(err)
	}
	s.ForEachLP(func(lp *LP) {
		lp.Handler = recModel{}
		lp.State = &recState{}
	})
	return s
}

// exec pops and executes exactly one event on the PE.
func exec(t *testing.T, pe *PE) *Event {
	t.Helper()
	ev, ok := pe.nextLive()
	if !ok {
		t.Fatal("no live event to execute")
	}
	pe.pending.Pop()
	pe.execute(ev)
	return ev
}

// TestStragglerRollsBackOnlyItsKP: a straggler for LP 0 must reverse LP
// 0's later events but leave LP 1 (a different KP) untouched.
func TestStragglerRollsBackOnlyItsKP(t *testing.T) {
	s := build2LPKernel(t)
	pe := s.pes[0]
	// LP0 at t=10, 20; LP1 at t=15.
	pe.insert(&Event{recvTime: 10, dst: 0, src: NoLP, seq: 100, Data: &recMsg{}})
	pe.insert(&Event{recvTime: 20, dst: 0, src: NoLP, seq: 101, Data: &recMsg{}})
	pe.insert(&Event{recvTime: 15, dst: 1, src: NoLP, seq: 102, Data: &recMsg{}})
	exec(t, pe) // t=10 LP0
	exec(t, pe) // t=15 LP1
	exec(t, pe) // t=20 LP0

	st0 := s.lps[0].State.(*recState)
	st1 := s.lps[1].State.(*recState)
	if len(st0.Log) != 2 || len(st1.Log) != 1 {
		t.Fatalf("setup wrong: %v %v", st0.Log, st1.Log)
	}

	// Straggler for LP0 at t=12: the t=20 event must be reversed, t=10
	// kept, and LP1 untouched.
	pe.insert(&Event{recvTime: 12, dst: 0, src: NoLP, seq: 103, Data: &recMsg{}})
	if got := len(st0.Log); got != 1 || st0.Log[0] != 10 {
		t.Fatalf("LP0 log after straggler: %v", st0.Log)
	}
	if got := len(st1.Log); got != 1 {
		t.Fatalf("LP1 was rolled back: %v", st1.Log)
	}
	if pe.stats.RolledBackEvents != 1 || pe.stats.PrimaryRollbacks != 1 {
		t.Fatalf("rollback counters: events=%d primary=%d", pe.stats.RolledBackEvents, pe.stats.PrimaryRollbacks)
	}
	// Re-execution: straggler (12) then the reversed event (20).
	e1 := exec(t, pe)
	e2 := exec(t, pe)
	if e1.recvTime != 12 || e2.recvTime != 20 {
		t.Fatalf("re-execution order: %v then %v", e1.recvTime, e2.recvTime)
	}
	if len(st0.Log) != 3 {
		t.Fatalf("final LP0 log: %v", st0.Log)
	}
}

// TestCascadingCancellation: rolling back an event that sent to another
// KP must reverse the downstream processed event too (secondary rollback).
func TestCascadingCancellation(t *testing.T) {
	s := build2LPKernel(t)
	pe := s.pes[0]
	// LP0's event at t=10 sends to LP1 at t=13.
	pe.insert(&Event{recvTime: 10, dst: 0, src: NoLP, seq: 100,
		Data: &recMsg{Fanout: []fan{{dst: 1, delay: 3}}}})
	exec(t, pe) // t=10 LP0, queues 13@LP1
	exec(t, pe) // t=13 LP1

	st1 := s.lps[1].State.(*recState)
	if len(st1.Log) != 1 {
		t.Fatalf("downstream not executed: %v", st1.Log)
	}

	// Straggler at t=5 for LP0 reverses t=10, which must cancel the
	// downstream event — already processed — triggering a secondary
	// rollback on LP1's KP.
	pe.insert(&Event{recvTime: 5, dst: 0, src: NoLP, seq: 101, Data: &recMsg{}})
	if len(st1.Log) != 0 {
		t.Fatalf("downstream event not reversed: %v", st1.Log)
	}
	if pe.stats.SecondaryRollbacks != 1 {
		t.Fatalf("secondary rollbacks = %d", pe.stats.SecondaryRollbacks)
	}
	// The cancelled event must not re-execute: drain everything.
	for {
		ev, ok := pe.nextLive()
		if !ok {
			break
		}
		pe.pending.Pop()
		pe.execute(ev)
	}
	st0 := s.lps[0].State.(*recState)
	// LP0: t=5 and t=10 re-executed; LP1: only the re-sent 13.
	if len(st0.Log) != 2 {
		t.Fatalf("LP0 log: %v", st0.Log)
	}
	if len(st1.Log) != 1 || st1.Log[0] != 13 {
		t.Fatalf("LP1 log after re-execution: %v", st1.Log)
	}
}

// TestCancelPendingIsLazy: cancelling an unprocessed event marks it and
// nextLive skips it.
func TestCancelPendingIsLazy(t *testing.T) {
	s := build2LPKernel(t)
	pe := s.pes[0]
	pe.insert(&Event{recvTime: 10, dst: 0, src: NoLP, seq: 100,
		Data: &recMsg{Fanout: []fan{{dst: 1, delay: 5}}}})
	src := exec(t, pe) // queues 15@LP1

	// Roll back the sender before the downstream event runs.
	pe.insert(&Event{recvTime: 2, dst: 0, src: NoLP, seq: 101, Data: &recMsg{}})
	if pe.stats.CanceledPending != 1 {
		t.Fatalf("canceledPending = %d", pe.stats.CanceledPending)
	}
	_ = src
	// Drain: LP1 must see exactly one event (the re-sent one at 15).
	for {
		ev, ok := pe.nextLive()
		if !ok {
			break
		}
		pe.pending.Pop()
		pe.execute(ev)
	}
	st1 := s.lps[1].State.(*recState)
	if len(st1.Log) != 1 || st1.Log[0] != 15 {
		t.Fatalf("LP1 log: %v", st1.Log)
	}
}

// TestRNGRewindOnRollback: a rolled-back event's random draws must be
// returned to the stream so re-execution sees the same values.
func TestRNGRewindOnRollback(t *testing.T) {
	s, err := New(Config{NumLPs: 1, NumPEs: 1, EndTime: 100})
	if err != nil {
		t.Fatal(err)
	}
	var drawn []float64
	s.LP(0).Handler = funcHandler{
		forward: func(lp *LP, ev *Event) { drawn = append(drawn, lp.Rand()) },
		reverse: func(lp *LP, ev *Event) { drawn = drawn[:len(drawn)-1] },
	}
	pe := s.pes[0]
	pe.insert(&Event{recvTime: 10, dst: 0, src: NoLP, seq: 100})
	exec(t, pe)
	first := drawn[0]
	// Straggler reverses it; the stream must be rewound.
	pe.insert(&Event{recvTime: 5, dst: 0, src: NoLP, seq: 101})
	exec(t, pe) // t=5 draws what WOULD have been first had order been right
	exec(t, pe) // t=10 re-executes
	if len(drawn) != 2 {
		t.Fatalf("drawn: %v", drawn)
	}
	if drawn[0] != first {
		t.Fatalf("stream not rewound: first draw %v then %v", first, drawn[0])
	}
	if drawn[1] == drawn[0] {
		t.Fatal("re-execution repeated the same draw for a different event")
	}
}

// funcHandler adapts closures to the Handler interface for tests.
type funcHandler struct {
	forward func(*LP, *Event)
	reverse func(*LP, *Event)
}

func (h funcHandler) Forward(lp *LP, ev *Event) { h.forward(lp, ev) }
func (h funcHandler) Reverse(lp *LP, ev *Event) { h.reverse(lp, ev) }

// TestSendSeqRestoredOnRollback: the per-LP send sequence must roll back
// with the event, keeping event identities deterministic on replay.
func TestSendSeqRestoredOnRollback(t *testing.T) {
	s := build2LPKernel(t)
	pe := s.pes[0]
	pe.insert(&Event{recvTime: 10, dst: 0, src: NoLP, seq: 100,
		Data: &recMsg{Fanout: []fan{{dst: 1, delay: 1}, {dst: 1, delay: 2}}}})
	exec(t, pe)
	if got := s.lps[0].sendSeq; got != 2 {
		t.Fatalf("sendSeq after 2 sends = %d", got)
	}
	pe.insert(&Event{recvTime: 5, dst: 0, src: NoLP, seq: 101, Data: &recMsg{}})
	if got := s.lps[0].sendSeq; got != 0 {
		t.Fatalf("sendSeq after rollback = %d", got)
	}
}

// TestFossilCollectionCommitsBelowGVT: fossil collection must commit
// strictly below GVT, keep the boundary event, and compact the list.
func TestFossilCollectionCommitsBelowGVT(t *testing.T) {
	s := build2LPKernel(t)
	pe := s.pes[0]
	for i := 0; i < 100; i++ {
		pe.insert(&Event{recvTime: Time(i + 1), dst: 0, src: NoLP, seq: uint64(100 + i), Data: &recMsg{}})
	}
	for i := 0; i < 100; i++ {
		exec(t, pe)
	}
	kp := s.kpOf(0)
	if kp.live() != 100 {
		t.Fatalf("live = %d", kp.live())
	}
	pe.fossilCollect(51) // events at t=1..50 commit; t=51 stays
	if pe.stats.Committed != 50 {
		t.Fatalf("committed = %d", pe.stats.Committed)
	}
	if kp.live() != 50 {
		t.Fatalf("live after fossil = %d", kp.live())
	}
	if kp.tail().recvTime != 100 {
		t.Fatalf("tail = %v", kp.tail().recvTime)
	}
	// The straggler guard still works for the uncommitted region.
	st0 := s.lps[0].State.(*recState)
	before := len(st0.Log)
	pe.insert(&Event{recvTime: 60.5, dst: 0, src: NoLP, seq: 500, Data: &recMsg{}})
	if rolled := before - len(st0.Log); rolled != 40 {
		t.Fatalf("straggler at 60.5 rolled back %d events, want 40", rolled)
	}
}

// TestFossilCompaction: repeated fossil collection must not let the
// processed slice grow without bound.
func TestFossilCompaction(t *testing.T) {
	s := build2LPKernel(t)
	pe := s.pes[0]
	kp := s.kpOf(0)
	tick := Time(1)
	seq := uint64(1)
	for round := 0; round < 50; round++ {
		for i := 0; i < 100; i++ {
			pe.insert(&Event{recvTime: tick, dst: 0, src: NoLP, seq: seq, Data: &recMsg{}})
			tick++
			seq++
			exec(t, pe)
		}
		pe.fossilCollect(tick)
	}
	if len(kp.processed) > 256 {
		t.Fatalf("processed slice grew to %d despite fossil collection", len(kp.processed))
	}
	if pe.stats.Committed != 5000 {
		t.Fatalf("committed = %d", pe.stats.Committed)
	}
}

// TestEventOrderingTotal: before() must be a strict total order on
// distinct identities and agree with beforeKey/keyBefore.
func TestEventOrderingTotal(t *testing.T) {
	evs := []*Event{
		{recvTime: 1, dst: 0, src: 0, seq: 0},
		{recvTime: 1, dst: 0, src: 0, seq: 1},
		{recvTime: 1, dst: 0, src: 1, seq: 0},
		{recvTime: 1, dst: 1, src: 0, seq: 0},
		{recvTime: 2, dst: 0, src: NoLP, seq: 7}, // bootstrap source sorts first
		{recvTime: 2, dst: 0, src: 0, seq: 0},
	}
	for i, a := range evs {
		if a.before(a) {
			t.Fatalf("event %d before itself", i)
		}
		for j, b := range evs {
			if i == j {
				continue
			}
			ab, ba := a.before(b), b.before(a)
			if ab == ba {
				t.Fatalf("order not strict/total for %d,%d: %v %v", i, j, ab, ba)
			}
			if ab != a.beforeKey(b.key()) || ab != !b.key().beforeEvent(a) && ab != a.before(b) {
				t.Fatalf("key comparisons disagree for %d,%d", i, j)
			}
			if a.key().beforeEvent(b) != ab {
				t.Fatalf("keyBefore disagrees for %d,%d", i, j)
			}
		}
	}
	// Transitivity over the sorted chain.
	for i := 0; i < len(evs); i++ {
		for j := i + 1; j < len(evs); j++ {
			if !evs[i].before(evs[j]) {
				t.Fatalf("list not ascending at %d,%d", i, j)
			}
		}
	}
}

// TestBitfield covers the tw_bf analogue.
func TestBitfield(t *testing.T) {
	var b Bitfield
	for i := uint(0); i < 32; i++ {
		if b.Test(i) {
			t.Fatalf("fresh bit %d set", i)
		}
		b.Set(i)
		if !b.Test(i) {
			t.Fatalf("bit %d not set", i)
		}
	}
	b.Clear(7)
	if b.Test(7) || !b.Test(6) || !b.Test(8) {
		t.Fatal("Clear touched neighbours")
	}
}

// TestBarrier: n goroutines must pass together, generations must reuse,
// and poison must release waiters with an error.
func TestBarrier(t *testing.T) {
	const n = 4
	b := newBarrier(n)
	done := make(chan int, n)
	for i := 0; i < n; i++ {
		go func(id int) {
			for round := 0; round < 100; round++ {
				if err := b.await(); err != nil {
					t.Error(err)
					break
				}
			}
			done <- id
		}(i)
	}
	for i := 0; i < n; i++ {
		<-done
	}

	// Poison: three waiters plus a poisoner.
	b2 := newBarrier(n)
	errs := make(chan error, n-1)
	for i := 0; i < n-1; i++ {
		go func() { errs <- b2.await() }()
	}
	b2.poison()
	for i := 0; i < n-1; i++ {
		if err := <-errs; err == nil {
			t.Fatal("poisoned barrier returned nil")
		}
	}
	if err := b2.await(); err == nil {
		t.Fatal("await after poison returned nil")
	}
}

// TestLPGuards: Now/Rand/Send outside handlers must panic.
func TestLPGuards(t *testing.T) {
	s, err := New(Config{NumLPs: 1, NumPEs: 1, EndTime: 1})
	if err != nil {
		t.Fatal(err)
	}
	lp := s.LP(0)
	mustPanic(t, "Now outside handler", func() { lp.Now() })
	mustPanic(t, "Rand outside handler", func() { lp.Rand() })
	mustPanic(t, "Send outside handler", func() { lp.Send(0, 1, nil) })
}

// TestEventAccessors covers the public read-only surface.
func TestEventAccessors(t *testing.T) {
	ev := &Event{recvTime: 3.5, dst: 2, src: 1, seq: 9}
	if ev.RecvTime() != 3.5 || ev.Dst() != 2 || ev.Src() != 1 {
		t.Fatalf("accessors wrong: %v", ev)
	}
	if ev.String() == "" {
		t.Fatal("empty String()")
	}
}

// heavyState carries a KiB of model state so snapshot retention is visible
// in bytes, not just counts.
type heavyState struct {
	data []byte
}

// heavySnap is a SnapshotModel whose per-event snapshots are full copies of
// the KiB state — the copy-state-saving worst case fossil collection must
// actually reclaim.
type heavySnap struct{}

func (heavySnap) Forward(lp *LP, ev *Event) {
	st := lp.State.(*heavyState)
	st.data[0]++
}

func (heavySnap) Snapshot(lp *LP) any {
	st := lp.State.(*heavyState)
	cp := make([]byte, len(st.data))
	copy(cp, st.data)
	return cp
}

func (heavySnap) Restore(lp *LP, snap any) {
	st := lp.State.(*heavyState)
	copy(st.data, snap.([]byte))
}

// snapBytes sums the bytes a stateSaver still references: live counts only
// snaps the kernel may yet restore; retained also counts committed
// snapshots whose slots have not been compacted away.
func snapBytes(s *stateSaver) (live, retained int) {
	for i, snap := range s.snaps {
		if snap == nil {
			continue
		}
		n := len(snap.([]byte))
		retained += n
		if i >= s.base {
			live += n
		}
	}
	return live, retained
}

// TestFossilCollectionFreesStateSaves: fossil collection must release
// state saves along with events — the committed prefix of the snapshot
// stack is dropped and compacted, the live snapshot count tracks kp.live()
// exactly, and the pressure valve's gauge follows both down.
func TestFossilCollectionFreesStateSaves(t *testing.T) {
	s := build2LPKernel(t)
	pe := s.pes[0]
	saver := StateSaving(heavySnap{}).(*stateSaver)
	s.lps[0].Handler = saver
	s.lps[0].State = &heavyState{data: make([]byte, 1024)}
	if err := bindHandlers(s.lps); err != nil { // Run's job; this test drives the PE by hand
		t.Fatal(err)
	}

	const n = 200
	for i := 0; i < n; i++ {
		pe.insert(&Event{recvTime: Time(i + 1), dst: 0, src: NoLP, seq: uint64(100 + i)})
		exec(t, pe)
	}
	kp := s.kpOf(0)
	if kp.live() != n || pe.liveEvents != n {
		t.Fatalf("live=%d gauge=%d, want %d", kp.live(), pe.liveEvents, n)
	}
	liveB, retainedB := snapBytes(saver)
	if liveB != n*1024 || retainedB != n*1024 {
		t.Fatalf("pre-fossil snapshot bytes live=%d retained=%d, want %d", liveB, retainedB, n*1024)
	}

	pe.fossilCollect(151) // t=1..150 commit; 50 live remain
	if pe.stats.Committed != 150 || kp.live() != 50 {
		t.Fatalf("committed=%d live=%d", pe.stats.Committed, kp.live())
	}
	if pe.liveEvents != 50 {
		t.Fatalf("gauge after fossil = %d, want 50", pe.liveEvents)
	}
	if err := pe.checkInvariants(0); err != nil {
		t.Fatal(err)
	}
	liveB, retainedB = snapBytes(saver)
	if liveB != 50*1024 {
		t.Fatalf("live snapshot bytes after fossil = %d, want %d", liveB, 50*1024)
	}
	// Commit-time compaction (base > 64 and > half the stack) must have
	// dropped the dead prefix, so retained bytes equal live bytes: no
	// committed KiB snapshot outlives its event.
	if retainedB != liveB {
		t.Fatalf("fossil collection leaked committed snapshots: retained=%d live=%d", retainedB, liveB)
	}

	// A straggler below the live region restores from the surviving
	// snapshots, proving the compaction kept the right ones.
	st := s.lps[0].State.(*heavyState)
	before := st.data[0]
	pe.insert(&Event{recvTime: 160.5, dst: 0, src: NoLP, seq: 999})
	if rolled := int(before) - int(st.data[0]); rolled != 40 {
		t.Fatalf("straggler rolled back %d applications, want 40", rolled)
	}
	if pe.liveEvents != 10 {
		t.Fatalf("gauge after rollback = %d, want 10", pe.liveEvents)
	}
}
