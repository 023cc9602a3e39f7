package core

import (
	"fmt"
	"strings"
	"testing"
)

// TestAsyncGVTCoverageSelfTest is the adversarial self-test of the token's
// covered set: the sender-side ledger (outMin and epochs, gvt_async.go) is
// the only thing that keeps a GVT estimate from overtaking mail still
// riding a lane, and no differential run can tell a correct ledger from one
// that happens not to be needed. So two PEs are driven by hand into the one
// shape where it is needed. PE 1 executes an event that mails PE 0 an event
// at t=2 and flushes it into PE 0's lane, where it stays undelivered while a
// token round runs; PE 0's own pending minimum is 5. The seeded bug is a
// token visit at PE 1 whose fold skips destination 0's entries — the open
// epoch on the first round, or the closed epoch after an intact round has
// closed it. The blind fold must publish an estimate past the in-flight
// event, and the kernel's own tripwire must say so once PE 0 drains the
// lane and fossil-collects against it: reclaimCanceled's "GVT violation"
// panic. The same sequence with the fold intact must publish an estimate no
// later than the event and pass clean, paranoid checks included.
func TestAsyncGVTCoverageSelfTest(t *testing.T) {
	const inFlight = Time(2)
	for _, tc := range []struct {
		name   string
		closed bool // run one intact round first, so the entry is a closed epoch
		blind  bool // PE 1's fold skips destination 0
	}{
		{"open-epoch/intact", false, false},
		{"open-epoch/blind", false, true},
		{"closed-epoch/intact", true, false},
		{"closed-epoch/blind", true, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, err := New(Config{
				NumLPs: 2, NumPEs: 2, NumKPs: 2, EndTime: 100, CheckInvariants: true,
				KPOfLP: func(lp int) int { return lp },
				PEOfKP: func(kp int) int { return kp },
			})
			if err != nil {
				t.Fatal(err)
			}
			s.ForEachLP(func(lp *LP) { lp.Handler = recModel{}; lp.State = &recState{} })
			if err := bindHandlers(s.lps); err != nil {
				t.Fatal(err)
			}
			pe0, pe1 := s.pes[0], s.pes[1]
			pe0.insert(&Event{recvTime: 5, dst: 0, src: NoLP, seq: 1, Data: &recMsg{}})
			pe1.insert(&Event{recvTime: 1, dst: 1, src: NoLP, seq: 2,
				Data: &recMsg{Fanout: []fan{{dst: 0, delay: inFlight - 1}}}})
			exec(t, pe1)        // posts 2@LP0 to PE 1's outbox
			pe1.flushMail(true) // and into PE 0's lane, where it stays

			// round circulates the token once: PE 0 launches it, PE 1
			// visits, PE 0 completes the round and publishes the estimate.
			round := func(blind bool) {
				s.requestGVT()
				pe0.tokenPass()
				if blind {
					outMin, epochs := pe1.outMin[0], pe1.epochs[0]
					pe1.outMin[0], pe1.epochs[0] = TimeInfinity, nil
					pe1.tokenPass()
					pe1.outMin[0], pe1.epochs[0] = outMin, epochs
				} else {
					pe1.tokenPass()
				}
				pe0.tokenPass()
			}
			if tc.closed {
				round(false)
				if len(pe1.epochs[0]) != 1 || pe1.outMin[0] != TimeInfinity {
					t.Fatalf("intact round did not close the epoch: outMin=%v epochs=%v",
						pe1.outMin[0], pe1.epochs[0])
				}
			}
			round(tc.blind)
			gvt := s.GVT()

			// PE 0's next scheduler pass: drain the lane, then the GVT step.
			var tripped any
			func() {
				defer func() {
					if r := recover(); r != nil {
						tripped = r
					}
				}()
				pe0.drainMailbox()
				if _, err := pe0.asyncPass(); err != nil {
					tripped = err
				}
			}()

			if !tc.blind {
				if gvt > inFlight {
					t.Fatalf("intact fold published %v past the in-flight event at %v", gvt, inFlight)
				}
				if tripped != nil {
					t.Fatalf("intact fold tripped the kernel: %v", tripped)
				}
				return
			}
			if gvt <= inFlight {
				t.Fatalf("blind fold published %v, not past the in-flight event at %v: the seeded bug did not bite",
					gvt, inFlight)
			}
			if msg := fmt.Sprint(tripped); !strings.Contains(msg, "GVT violation") {
				t.Fatalf("estimate %v overtook the in-flight event at %v and the kernel did not notice (got %v)",
					gvt, inFlight, tripped)
			}
		})
	}
}
