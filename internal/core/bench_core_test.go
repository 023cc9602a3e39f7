package core

// Kernel micro-benchmarks: raw event-loop throughput, rollback cost, and
// remote-message overhead, independent of any model semantics.

import (
	"fmt"
	"testing"
)

// nopModel is the cheapest possible self-driving model: one forwarded
// event per event, no state, no randomness.
type nopModel struct{}

func (nopModel) Forward(lp *LP, ev *Event) { lp.SendSelf(1.0, nil) }
func (nopModel) Reverse(lp *LP, ev *Event) {}

// BenchmarkSequentialEventLoop measures pure sequential scheduling cost
// per event.
func BenchmarkSequentialEventLoop(b *testing.B) {
	q, err := NewSequential(Config{NumLPs: 1, EndTime: Time(b.N) + 1})
	if err != nil {
		b.Fatal(err)
	}
	q.LP(0).Handler = nopModel{}
	q.Schedule(0, 0.5, nil)
	b.ResetTimer()
	if _, err := q.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkParallelSelfLoop measures the 1-PE Time Warp scheduling cost
// per event (queue + processed-list + GVT machinery, no rollbacks).
func BenchmarkParallelSelfLoop(b *testing.B) {
	s, err := New(Config{NumLPs: 1, NumPEs: 1, EndTime: Time(b.N) + 1})
	if err != nil {
		b.Fatal(err)
	}
	s.LP(0).Handler = nopModel{}
	s.Schedule(0, 0.5, nil)
	b.ResetTimer()
	if _, err := s.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkRollbackReplay measures reverse-computation cost: each
// iteration executes a window of events, rolls it back with a straggler,
// and re-executes.
func BenchmarkRollbackReplay(b *testing.B) {
	for _, window := range []int{8, 64} {
		b.Run(fmt.Sprintf("window%d", window), func(b *testing.B) {
			s, err := New(Config{NumLPs: 1, NumPEs: 1, EndTime: 1e12,
				KPOfLP: func(int) int { return 0 }, PEOfKP: func(int) int { return 0 }})
			if err != nil {
				b.Fatal(err)
			}
			s.LP(0).Handler = funcHandler{
				forward: func(lp *LP, ev *Event) {},
				reverse: func(lp *LP, ev *Event) {},
			}
			pe := s.pes[0]
			now := Time(1)
			seq := uint64(1)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				base := now
				for w := 0; w < window; w++ {
					pe.insert(&Event{recvTime: now, dst: 0, src: NoLP, seq: seq})
					seq++
					now++
					ev, _ := pe.nextLive()
					pe.pending.Pop()
					pe.execute(ev)
				}
				// Straggler just before the window: rolls everything back.
				pe.insert(&Event{recvTime: base - 0.5, dst: 0, src: NoLP, seq: seq})
				seq++
				// Re-execute the straggler and the reversed window.
				for {
					ev, ok := pe.nextLive()
					if !ok {
						break
					}
					pe.pending.Pop()
					pe.execute(ev)
				}
				pe.fossilCollect(now)
			}
			b.StopTimer()
			if pe.stats.RolledBackEvents != int64(b.N)*int64(window) {
				b.Fatalf("rolled back %d, want %d", pe.stats.RolledBackEvents, int64(b.N)*int64(window))
			}
		})
	}
}

// BenchmarkRemoteMessage measures the mailbox round-trip cost with two
// PEs ping-ponging a single event.
func BenchmarkRemoteMessage(b *testing.B) {
	s, err := New(Config{
		NumLPs: 2, NumPEs: 2, NumKPs: 2, EndTime: Time(b.N) + 1,
		KPOfLP: func(lp int) int { return lp },
		PEOfKP: func(kp int) int { return kp },
	})
	if err != nil {
		b.Fatal(err)
	}
	s.ForEachLP(func(lp *LP) {
		other := LPID(1 - int(lp.ID))
		lp.Handler = funcHandler{
			forward: func(lp *LP, ev *Event) { lp.Send(other, 1.0, nil) },
			reverse: func(lp *LP, ev *Event) {},
		}
	})
	s.Schedule(0, 0.5, nil)
	b.ResetTimer()
	if _, err := s.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkNeighborRing measures local-send scheduling cost across many
// LPs on one PE: a ring of 64 LPs each forwarding to its successor.
func BenchmarkNeighborRing(b *testing.B) {
	s, err := New(Config{NumLPs: 64, NumPEs: 1, EndTime: Time(b.N) + 1})
	if err != nil {
		b.Fatal(err)
	}
	s.ForEachLP(func(lp *LP) {
		next := LPID((int(lp.ID) + 1) % 64)
		lp.Handler = funcHandler{
			forward: func(lp *LP, ev *Event) { lp.Send(next, 1.0, nil) },
			reverse: func(lp *LP, ev *Event) {},
		}
	})
	s.Schedule(0, 0.5, nil)
	b.ResetTimer()
	if _, err := s.Run(); err != nil {
		b.Fatal(err)
	}
}
