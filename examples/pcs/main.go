// PCS example: size the channel count of a cellular network.
//
// The report's simulation methodology descends from the PCS (Personal
// Communication Service) studies on Georgia Tech Time Warp and ROSS; this
// example runs the bundled PCS model — cells with finite radio channels,
// Poisson call arrivals, mid-call handoffs — across a range of channel
// counts and shows the Erlang-style blocking/dropping trade-off.
//
//	go run ./examples/pcs
package main

import (
	"fmt"
	"log"
	"os"

	"repro/internal/core"
	"repro/internal/pcs"
	"repro/internal/stats"
)

func main() {
	table := stats.Table{
		Title:  "16x16-cell PCS network, mean call 3 min, handoff every 6 min, 480 simulated minutes",
		Header: []string{"channels/cell", "calls", "P(block)", "P(drop)", "handoffs", "completed"},
	}
	for _, channels := range []int{4, 6, 8, 10, 14} {
		cfg := pcs.Config{
			N:                16,
			Channels:         channels,
			MeanInterarrival: 0.75, // ~1.33 calls/min/cell: a loaded network
			MeanCallDuration: 3,
			MeanMoveTime:     6,
			EndTime:          480,
			Seed:             11,
		}
		eng, model, err := pcs.BuildEngine(core.KindOptimistic, cfg)
		if err != nil {
			log.Fatal(err)
		}
		if _, err := eng.Run(); err != nil {
			log.Fatal(err)
		}
		t := model.Totals(eng)
		table.AddRow(
			fmt.Sprintf("%d", channels),
			fmt.Sprintf("%d", t.Arrivals),
			fmt.Sprintf("%.4f", t.BlockProb),
			fmt.Sprintf("%.4f", t.DropProb),
			fmt.Sprintf("%d", t.Handoffs),
			fmt.Sprintf("%d", t.Completed))
	}
	if err := table.Render(os.Stdout); err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nMore channels per cell buy lower blocking and dropping probabilities;")
	fmt.Println("the knee of the curve is where extra spectrum stops paying for itself.")
}
