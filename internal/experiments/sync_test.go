package experiments

import "testing"

// TestSyncComparison: every engine must appear, committed work must agree
// between engines on the same workload (determinism across engines), and
// conservative PHOLD throughput must improve with lookahead.
func TestSyncComparison(t *testing.T) {
	points, err := SyncComparison(Options{Steps: 15, Seed: 14, PEs: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 9 {
		t.Fatalf("got %d sync points", len(points))
	}
	committed := map[string]map[float64]int64{}
	for _, p := range points {
		if p.EventRate <= 0 || p.Committed <= 0 {
			t.Fatalf("empty cell %+v", p)
		}
		key := p.Workload
		if committed[key] == nil {
			committed[key] = map[float64]int64{}
		}
		if prev, ok := committed[key][p.Lookahead]; ok && prev != p.Committed {
			t.Fatalf("%s la=%g: engines commit different work: %d vs %d",
				key, p.Lookahead, prev, p.Committed)
		}
		committed[key][p.Lookahead] = p.Committed
		if p.Engine != "optimistic" && p.RolledBack != 0 {
			t.Fatalf("%s engine %s rolled back events", p.Workload, p.Engine)
		}
	}
	// Conservative window counts must shrink as lookahead grows.
	var consRounds []int64
	for _, p := range points {
		if p.Workload == "phold-1024" && p.Engine == "conservative" {
			consRounds = append(consRounds, p.Rounds)
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
	if tab := SyncTable(points); len(tab.Rows) != 9 {
		t.Fatal("sync table malformed")
	}
}
