package experiments

import (
	"fmt"
	"testing"
)

// TestSyncComparison: every engine must appear, committed work must agree
// between engines on the same workload (determinism across engines), and
// conservative PHOLD throughput must improve with lookahead.
func TestSyncComparison(t *testing.T) {
	runs := mustRun(t, syncSweep, Options{Steps: 15, Seed: 14, PEs: 2})
	if len(runs) != 9 {
		t.Fatalf("got %d sync runs", len(runs))
	}
	committed := map[string]int64{}
	for _, r := range runs {
		if r.Stats.EventRate <= 0 || r.Stats.Committed <= 0 {
			t.Fatalf("empty cell %s/%s: %+v", r.workload(), r.Kind, r.Stats)
		}
		// One key per workload and lookahead: the rows the engines share.
		key := r.workload()
		if r.PHOLD != nil {
			key = fmt.Sprintf("%s la=%g", key, r.PHOLD.Lookahead)
		}
		if prev, ok := committed[key]; ok && prev != r.Stats.Committed {
			t.Fatalf("%s: engines commit different work: %d vs %d", key, prev, r.Stats.Committed)
		}
		committed[key] = r.Stats.Committed
		if r.Kind != "optimistic" && r.Stats.RolledBackEvents != 0 {
			t.Fatalf("%s engine %s rolled back events", r.workload(), r.Kind)
		}
	}
	// Conservative window counts must shrink as lookahead grows.
	var consRounds []int64
	for _, r := range runs {
		if r.workload() == "phold-1024" && r.Kind == "conservative" {
			consRounds = append(consRounds, r.Stats.GVTRounds)
		}
	}
	if len(consRounds) != 3 {
		t.Fatalf("conservative phold rows = %d", len(consRounds))
	}
	for i := 1; i < len(consRounds); i++ {
		if consRounds[i] >= consRounds[i-1] {
			t.Fatalf("conservative windows did not shrink with lookahead: %v", consRounds)
		}
	}
	if tab := mustRender(t, renderSync, runs).Table; len(tab.Rows) != 9 {
		t.Fatal("sync table malformed")
	}
}
