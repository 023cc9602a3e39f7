package core

import (
	"sync"
	"testing"
	"time"
)

// newCommsSim builds a wired simulator (lanes, outboxes, wake channels)
// without handlers; comms unit tests drive the PEs' mailbox machinery
// directly instead of calling Run.
func newCommsSim(t testing.TB, pes int) *Simulator {
	t.Helper()
	s, err := New(Config{NumLPs: pes * 2, NumPEs: pes, EndTime: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(s.pes) != pes {
		t.Fatalf("got %d PEs, want %d", len(s.pes), pes)
	}
	return s
}

// TestLaneFIFOWraparound drives one lane through several capacity's worth
// of push/drain cycles with odd batch sizes, checking FIFO order across
// the ring's wraparound and the partial-push contract when full.
func TestLaneFIFOWraparound(t *testing.T) {
	var l lane
	next := uint64(0) // next seq to push
	want := uint64(0) // next seq expected out
	var batch []mail
	pushBatch := func(n int) int {
		batch = batch[:0]
		for i := 0; i < n; i++ {
			batch = append(batch, mail{ev: &Event{seq: next + uint64(i)}})
		}
		pushed := l.push(batch)
		next += uint64(pushed)
		return pushed
	}
	var out []mail
	drainAll := func() {
		out = l.drain(out[:0])
		for _, m := range out {
			if m.ev.seq != want {
				t.Fatalf("drained seq %d, want %d", m.ev.seq, want)
			}
			want++
		}
	}

	// Fill to capacity in odd-sized batches; the last push must be partial.
	for pushed := 0; pushed < laneCap; {
		n := pushBatch(7)
		pushed += n
		if n == 0 {
			t.Fatal("push returned 0 with lane not yet full")
		}
	}
	if n := pushBatch(3); n != 0 {
		t.Fatalf("push into full lane accepted %d messages", n)
	}
	drainAll()
	if want != uint64(laneCap) {
		t.Fatalf("drained %d messages, want %d", want, laneCap)
	}

	// Cycle well past the index wrap region with mixed batch sizes.
	for cycle := 0; cycle < 50; cycle++ {
		pushBatch(1 + cycle%13)
		if cycle%3 != 0 {
			drainAll()
		}
	}
	drainAll()
	if want != next {
		t.Fatalf("drained %d of %d pushed messages", want, next)
	}
	if !l.isEmpty() {
		t.Fatal("lane not empty after full drain")
	}
}

// TestLaneSPSCConcurrent runs one producer against one concurrent consumer
// and asserts strict FIFO; under -race this also proves the slot writes are
// properly published by the tail store (and the frees by the head store).
func TestLaneSPSCConcurrent(t *testing.T) {
	const total = 20000
	var l lane
	done := make(chan struct{})
	go func() {
		defer close(done)
		var batch []mail
		sent := uint64(0)
		for sent < total {
			batch = batch[:0]
			n := int(sent%9) + 1
			for i := 0; i < n && sent+uint64(i) < total; i++ {
				batch = append(batch, mail{ev: &Event{seq: sent + uint64(i)}})
			}
			pushed := l.push(batch)
			sent += uint64(pushed)
		}
	}()
	var out []mail
	want := uint64(0)
	for want < total {
		out = l.drain(out[:0])
		for _, m := range out {
			if m.ev.seq != want {
				t.Fatalf("drained seq %d, want %d", m.ev.seq, want)
			}
			want++
		}
	}
	<-done
	if !l.isEmpty() {
		t.Fatal("lane not empty after consuming every message")
	}
}

// TestOutboxPartialFlushKeepsOrder posts more mail to one destination than
// a lane can hold, so flushMail must take the partial-push path; the
// retried remainder has to come out in the original order.
func TestOutboxPartialFlushKeepsOrder(t *testing.T) {
	s := newCommsSim(t, 2)
	src, dst := s.pes[0], s.pes[1]

	total := laneCap + laneCap/2
	for i := 0; i < total; i++ {
		src.post(dst, mail{ev: &Event{seq: uint64(i)}})
	}
	if src.mailSent != int64(total) {
		t.Fatalf("mailSent = %d, want %d", src.mailSent, total)
	}

	var got []mail
	for pass := 0; len(got) < total; pass++ {
		if pass > 4 {
			t.Fatalf("mail not through after %d flush passes (%d/%d)", pass, len(got), total)
		}
		src.flushMail(false)
		got = dst.lanes[src.id].drain(got)
	}
	for i, m := range got {
		if m.ev.seq != uint64(i) {
			t.Fatalf("position %d holds seq %d; partial flush broke FIFO", i, m.ev.seq)
		}
	}
	if len(src.outbox.dirty) != 0 {
		t.Fatal("outbox still dirty after full flush")
	}
	if src.batchesFlushed < 2 {
		t.Fatalf("batchesFlushed = %d, want >= 2 (one full lane + remainder)", src.batchesFlushed)
	}
}

// TestMailboxMPSCOrdering is the ordering property test the tentpole asks
// for: N concurrent senders each stream paired positive/cancel messages at
// one consumer. The kernel's correctness hinge is that per-sender FIFO
// order suffices — a positive event and its cancellation always originate
// from the same source PE (the sender is who rolls back), so as long as
// each sender's lane is FIFO, a cancellation can never be drained before
// the positive message it chases, no matter how the senders interleave.
func TestMailboxMPSCOrdering(t *testing.T) {
	const (
		senders = 4
		pairs   = 3000
	)
	s := newCommsSim(t, senders+1)
	consumer := s.pes[senders]

	var wg sync.WaitGroup
	for sn := 0; sn < senders; sn++ {
		wg.Add(1)
		go func(sn int) {
			defer wg.Done()
			l := &consumer.lanes[sn]
			var backlog []mail
			seq := uint64(0)
			for seq < pairs || len(backlog) > 0 {
				// Queue a positive/cancel pair (the cancel chases its own
				// positive, exactly like an aggressive rollback), then push
				// as much of the backlog as fits.
				if seq < pairs {
					ev := &Event{src: LPID(sn), seq: seq}
					backlog = append(backlog, mail{ev: ev}, mail{ev: ev, cancel: true})
					seq++
				}
				n := l.push(backlog)
				backlog = backlog[:copy(backlog, backlog[n:])]
			}
		}(sn)
	}

	lastSeq := make([]int64, senders) // highest positive seq seen per sender, -1 init
	for i := range lastSeq {
		lastSeq[i] = -1
	}
	open := make(map[[2]uint64]bool) // (sender, seq) -> positive seen, cancel pending
	received := 0
	var out []mail
	for received < senders*pairs*2 {
		out = out[:0]
		for i := 0; i < senders; i++ {
			out = consumer.lanes[i].drain(out)
		}
		for _, m := range out {
			key := [2]uint64{uint64(m.ev.src), m.ev.seq}
			if m.cancel {
				if !open[key] {
					t.Fatalf("cancellation for sender %d seq %d drained before its positive message",
						m.ev.src, m.ev.seq)
				}
				delete(open, key)
			} else {
				if int64(m.ev.seq) <= lastSeq[m.ev.src] {
					t.Fatalf("sender %d positive seq %d arrived after seq %d; per-sender FIFO broken",
						m.ev.src, m.ev.seq, lastSeq[m.ev.src])
				}
				lastSeq[m.ev.src] = int64(m.ev.seq)
				open[key] = true
			}
		}
		received += len(out)
	}
	wg.Wait()
	if len(open) != 0 {
		t.Fatalf("%d positives never chased by their cancellation", len(open))
	}
}

// TestParkWakeOnMail checks the park/wake handshake: a parked PE wakes when
// a sender flushes mail into its lane, and the Dekker recheck refuses to
// park when mail is already waiting.
func TestParkWakeOnMail(t *testing.T) {
	s := newCommsSim(t, 2)
	src, dst := s.pes[0], s.pes[1]

	parked := make(chan struct{})
	go func() {
		dst.park()
		close(parked)
	}()
	waitFor(t, "PE to park", func() bool { return dst.parked.Load() })

	src.post(dst, mail{ev: &Event{seq: 1}})
	src.flushMail(false)
	select {
	case <-parked:
	case <-time.After(5 * time.Second):
		t.Fatal("flushMail did not wake the parked PE")
	}
	if dst.parks != 1 {
		t.Fatalf("parks = %d, want 1", dst.parks)
	}
	if dst.wakes.Load() != 1 {
		t.Fatalf("wakes = %d, want 1", dst.wakes.Load())
	}

	// Mail still in the lane: the recheck must bail out instead of
	// sleeping with work pending.
	dst.park()
	if got := dst.parks; got != 1 {
		t.Fatalf("PE parked with mail in its lane (parks = %d)", got)
	}
}

// TestParkWakeOnGVTRequest checks the other wake source: requestGVT must
// unpark every PE so the round's barrier can form, and a pending GVT
// request must prevent parking in the first place.
func TestParkWakeOnGVTRequest(t *testing.T) {
	s := newCommsSim(t, 2)
	pe := s.pes[1]

	parked := make(chan struct{})
	go func() {
		pe.park()
		close(parked)
	}()
	waitFor(t, "PE to park", func() bool { return pe.parked.Load() })

	s.requestGVT()
	select {
	case <-parked:
	case <-time.After(5 * time.Second):
		t.Fatal("requestGVT did not wake the parked PE")
	}

	// With the request still pending, park must refuse to sleep.
	pe.park()
	if pe.parks != 1 {
		t.Fatalf("PE parked while a GVT round was requested (parks = %d)", pe.parks)
	}
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestAntiMessageOrderingUnderStress encodes the per-sender-FIFO
// sufficiency argument end to end: four PEs under forced rollbacks, mail
// shuffling, delayed GVT and held-then-burst flushes generate heavy
// cross-PE anti-message traffic, while paranoid mode's drain tripwires
// panic the run if a cancellation ever arrives ahead of its positive
// (an unscheduled-state target) or after a premature recycle (stateFree).
// The committed trajectory must still match the sequential reference.
func TestAntiMessageOrderingUnderStress(t *testing.T) {
	base := Config{NumLPs: 64, EndTime: 30, Seed: 29}
	want, _ := runStressSequential(t, base, 16)

	cfg := base
	cfg.NumPEs = 4
	cfg.NumKPs = 16
	cfg.BatchSize = 4
	cfg.GVTInterval = 2
	got, st := runStressParallel(t, cfg, 16, paranoid, armFaults(t, &Faults{
		Seed: 31, RollbackEvery: 2, RollbackDepth: 5,
		ShuffleMail: true, GVTDelay: 1, MailBurst: 3,
	}))
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("LP %d diverged under comms stress: got %+v want %+v", i, got[i], want[i])
		}
	}
	if st.MailSent == 0 || st.RolledBackEvents == 0 {
		t.Fatalf("stress did not exercise cross-PE cancellation: mailSent=%d rolledBack=%d",
			st.MailSent, st.RolledBackEvents)
	}
	if st.MailSent != st.MailReceived {
		t.Fatalf("in-flight accounting leaked: sent %d != received %d", st.MailSent, st.MailReceived)
	}
	if st.BatchesFlushed == 0 || st.BatchedMessages != st.MailSent {
		t.Fatalf("coalescing stats inconsistent: %d batches, %d batched of %d sent",
			st.BatchesFlushed, st.BatchedMessages, st.MailSent)
	}
}

// FuzzMailboxOrdering fuzzes deterministic interleavings of posts, holds,
// flushes and drains across two senders and one consumer, asserting the
// two mailbox-ordering properties (per-sender FIFO; cancel never before
// its positive) and conservation of the sharded in-flight counters.
func FuzzMailboxOrdering(f *testing.F) {
	f.Add([]byte{0x00, 0x41, 0x9f, 0x22, 0xe7})
	f.Add([]byte{0xff, 0xff, 0x00, 0x00, 0x13, 0x37, 0x55, 0xaa})
	f.Fuzz(func(t *testing.T, program []byte) {
		s := newCommsSim(t, 3)
		consumer := s.pes[2]
		senders := []*PE{s.pes[0], s.pes[1]}
		seq := [2]uint64{}
		uncancelled := [2][]uint64{} // positives posted, cancel not yet posted
		lastSeq := [2]int64{-1, -1}
		open := map[[2]uint64]bool{}
		var out []mail

		drain := func() {
			out = out[:0]
			for i := range senders {
				out = consumer.lanes[senders[i].id].drain(out)
			}
			consumer.mailReceived += int64(len(out))
			for _, m := range out {
				key := [2]uint64{uint64(m.ev.src), m.ev.seq}
				if m.cancel {
					if !open[key] {
						t.Fatalf("cancel for sender %d seq %d before its positive", m.ev.src, m.ev.seq)
					}
					delete(open, key)
				} else {
					if int64(m.ev.seq) <= lastSeq[m.ev.src] {
						t.Fatalf("sender %d FIFO broken at seq %d", m.ev.src, m.ev.seq)
					}
					lastSeq[m.ev.src] = int64(m.ev.seq)
					open[key] = true
				}
			}
		}

		for _, op := range program {
			sn := int(op >> 7)
			src := senders[sn]
			switch (op >> 4) & 7 {
			case 0, 1, 2: // post a positive
				src.post(consumer, mail{ev: &Event{src: LPID(sn), seq: seq[sn]}})
				uncancelled[sn] = append(uncancelled[sn], seq[sn])
				seq[sn]++
			case 3, 4: // cancel an outstanding positive (same-sender rule)
				if n := len(uncancelled[sn]); n > 0 {
					pick := int(op&0x0f) % n
					cseq := uncancelled[sn][pick]
					uncancelled[sn] = append(uncancelled[sn][:pick], uncancelled[sn][pick+1:]...)
					src.post(consumer, mail{ev: &Event{src: LPID(sn), seq: cseq}, cancel: true})
				}
			case 5: // flush (possibly partial if the lane is full)
				src.flushMail(false)
			case 6: // consumer drains everything available
				drain()
			case 7: // burst: several posts then an immediate flush
				for i := 0; i < int(op&0x0f); i++ {
					src.post(consumer, mail{ev: &Event{src: LPID(sn), seq: seq[sn]}})
					uncancelled[sn] = append(uncancelled[sn], seq[sn])
					seq[sn]++
				}
				src.flushMail(false)
			}
		}
		// Drain to empty: flush any outbox remainder, then pull the lanes.
		for i := 0; i < 64; i++ {
			senders[0].flushMail(true)
			senders[1].flushMail(true)
			drain()
			if len(senders[0].outbox.dirty) == 0 && len(senders[1].outbox.dirty) == 0 &&
				!consumer.hasInbound() {
				break
			}
		}
		if sent := senders[0].mailSent + senders[1].mailSent; sent != consumer.mailReceived {
			t.Fatalf("counter conservation broken: sent %d, received %d", sent, consumer.mailReceived)
		}
	})
}

// TestStatsCommsCountersConserved runs a real mail-heavy simulation and
// cross-checks the comms counters against each other.
func TestStatsCommsCountersConserved(t *testing.T) {
	cfg := Config{NumLPs: 64, NumPEs: 4, NumKPs: 16, EndTime: 30, Seed: 7,
		BatchSize: 4, GVTInterval: 2}
	_, st := runStressParallel(t, cfg, 16, paranoid)
	if st.MailSent != st.MailReceived {
		t.Fatalf("sent %d != received %d at termination", st.MailSent, st.MailReceived)
	}
	if st.BatchedMessages != st.MailSent {
		t.Fatalf("batched %d != sent %d: some mail bypassed the outbox", st.BatchedMessages, st.MailSent)
	}
	if st.MailSent > 0 {
		if st.BatchesFlushed == 0 || st.MailboxPeak == 0 {
			t.Fatalf("comms stats missing: %+v", st)
		}
		if st.AvgBatchSize < 1 {
			t.Fatalf("average batch size %.2f < 1 with %d messages", st.AvgBatchSize, st.MailSent)
		}
	}
}
