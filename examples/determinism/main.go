// Determinism demo (the report's Attachment 3): run the same hot-potato
// configuration on the sequential engine, the conservative window-
// synchronous executor and the optimistic parallel kernel, and show that
// every statistic matches exactly. It exits 1 if the engines disagree.
//
// The report's argument (§4.2.1): an optimistic simulator executes events
// out of order and rolls back, so the only way its results can equal the
// sequential run is if the synchronization is airtight and simultaneous
// events are fully ordered — which the per-packet jitter randomisation
// plus the kernel's total event order guarantee.
//
//	go run ./examples/determinism
package main

import (
	"fmt"
	"log"
	"os"

	"repro/internal/core"
	"repro/internal/hotpotato"
)

func main() {
	base := hotpotato.DefaultConfig(16)
	base.Steps = 100
	base.Seed = 2002 // the report's year

	var totals []hotpotato.Totals
	for _, kind := range core.EngineKinds() {
		cfg := base
		if kind != core.KindSequential {
			cfg.NumPEs = 4
		}
		if kind == core.KindOptimistic {
			cfg.NumKPs = 64
			cfg.BatchSize = 8 // small batches provoke more optimism and rollbacks
			cfg.GVTInterval = 4
		}
		eng, model, err := hotpotato.BuildEngine(kind, cfg)
		if err != nil {
			log.Fatal(err)
		}
		ks, err := eng.Run()
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%s engine (%d PEs, %d rounds, %d events rolled back):\n",
			kind, ks.NumPEs, ks.GVTRounds, ks.RolledBackEvents)
		t := model.Totals(eng)
		fmt.Print(t)
		fmt.Println()
		totals = append(totals, t)
	}

	if totals[0] == totals[1] && totals[0] == totals[2] {
		fmt.Println("RESULT: every statistic identical across all three engines —")
		fmt.Println("the model is deterministic and repeatable, despite optimistic")
		fmt.Println("execution with rollbacks on one engine and windowed barriers on another.")
		return
	}
	fmt.Println("RESULT: MISMATCH — this should never happen; please file a bug.")
	os.Exit(1)
}
