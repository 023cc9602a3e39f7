// Custom-model tutorial: how to write your own simulation on the Time
// Warp kernel.
//
// The model here is a ring of N stations passing a token with a random
// per-hop latency; each station counts its token sightings. It shows the
// four things a gotw model implements:
//
//  1. Forward  — mutate the LP state later events read, draw randomness
//     through the LP, send events with positive delays, and save whatever
//     you overwrite into your own message struct;
//
//  2. Reverse  — restore exactly what Forward changed (the kernel undoes
//     sends, random draws and the send sequence for you);
//
//  3. Commit   — count output statistics, once per committed event, in
//     per-LP order (optional: core.Committer). No event reads them, so
//     they need no save slot and no undo;
//
//  4. setup    — install handlers/state through the Host interface and
//     schedule bootstrap events, so the same code runs on the sequential
//     engine and the parallel kernel.
//
//     go run ./examples/custommodel
package main

import (
	"fmt"
	"log"

	"repro/internal/core"
)

// station is the per-LP state. LastSeen is state a later event may read
// (a model timing the gap between sightings would), so Forward and Reverse
// keep it; Sightings is output only, counted in Commit.
type station struct {
	Sightings int64
	LastSeen  core.Time
}

// tokenMsg is the message payload; PrevSeen is the reverse-computation
// save slot for the LastSeen field Forward overwrites.
type tokenMsg struct {
	HopsLeft int
	PrevSeen core.Time
}

// ring is the model: a handler shared by every LP.
type ring struct {
	size int64
}

// Forward records the sighting time and passes the token to the next
// station with a random latency, until its hop budget runs out.
func (r ring) Forward(lp *core.LP, ev *core.Event) {
	st := lp.State.(*station)
	msg := ev.Data.(*tokenMsg)

	msg.PrevSeen = st.LastSeen // save before overwrite
	st.LastSeen = ev.RecvTime()

	if msg.HopsLeft > 0 {
		next := core.LPID((int64(lp.ID) + 1) % r.size)
		latency := core.Time(0.1 + lp.RandExp(0.9))
		lp.Send(next, latency, &tokenMsg{HopsLeft: msg.HopsLeft - 1})
	}
}

// Reverse restores the field Forward changed. The send, the random draw
// and the send-sequence counter are rolled back by the kernel.
func (r ring) Reverse(lp *core.LP, ev *core.Event) {
	st := lp.State.(*station)
	msg := ev.Data.(*tokenMsg)
	st.LastSeen = msg.PrevSeen
}

// Commit counts the sighting once the event can no longer be rolled back.
func (r ring) Commit(lp *core.LP, ev *core.Event) {
	lp.State.(*station).Sightings++
}

// setup installs the model on either engine.
func setup(h core.Host, size int64, tokens int) {
	h.ForEachLP(func(lp *core.LP) {
		lp.Handler = ring{size: size}
		lp.State = &station{}
	})
	for i := 0; i < tokens; i++ {
		// Start each token at a different station, at staggered times so
		// no two bootstrap events tie.
		h.Schedule(core.LPID(i), core.Time(float64(i+1))*0.001, &tokenMsg{HopsLeft: 5000})
	}
}

func main() {
	const size = 64
	const tokens = 8

	// Parallel run.
	sim, err := core.New(core.Config{NumLPs: size, NumPEs: 4, EndTime: 1000, Seed: 9})
	if err != nil {
		log.Fatal(err)
	}
	setup(sim, size, tokens)
	ks, err := sim.Run()
	if err != nil {
		log.Fatal(err)
	}

	// Sequential reference with the same seed.
	seq, err := core.NewSequential(core.Config{NumLPs: size, EndTime: 1000, Seed: 9})
	if err != nil {
		log.Fatal(err)
	}
	setup(seq, size, tokens)
	if _, err := seq.Run(); err != nil {
		log.Fatal(err)
	}

	var parTotal, seqTotal int64
	mismatches := 0
	for i := 0; i < size; i++ {
		p := sim.LP(core.LPID(i)).State.(*station)
		s := seq.LP(core.LPID(i)).State.(*station)
		parTotal += p.Sightings
		seqTotal += s.Sightings
		if *p != *s {
			mismatches++
		}
	}
	fmt.Printf("ring of %d stations, %d tokens: %d sightings (parallel) / %d (sequential)\n",
		size, tokens, parTotal, seqTotal)
	fmt.Printf("kernel: %d committed, %d rolled back, %.0f events/s on %d PEs\n",
		ks.Committed, ks.RolledBackEvents, ks.EventRate, ks.NumPEs)
	if mismatches == 0 {
		fmt.Println("station states identical across engines — reverse computation is exact")
	} else {
		fmt.Printf("%d stations differ — reverse computation bug!\n", mismatches)
	}
}
