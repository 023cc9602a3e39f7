package experiments

import (
	"bytes"
	"strings"
	"testing"
)

// tinyOpts keeps experiment smoke tests fast: the quick ladder trimmed
// further via the Steps override.
func tinyOpts() Options {
	return Options{Steps: 20, Seed: 2, PEs: 2}
}

// TestDeliverySweepShape: the Figure 3/4 sweep must cover the full grid
// and deliver packets at every point; delivery time must grow with N at
// fixed load (the linear-in-N headline, loosely checked at small scale).
func TestDeliverySweepShape(t *testing.T) {
	opt := tinyOpts()
	opt.Steps = 0 // use per-size defaults so larger N gets a fair window
	points, err := DeliverySweep(opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != len(opt.networkSizes())*len(loads) {
		t.Fatalf("got %d points", len(points))
	}
	byLoad := map[float64][]LoadPoint{}
	for _, p := range points {
		if p.Delivered == 0 {
			t.Fatalf("no deliveries at N=%d load=%.0f", p.N, p.LoadPct)
		}
		byLoad[p.LoadPct] = append(byLoad[p.LoadPct], p)
	}
	for load, series := range byLoad {
		first, last := series[0], series[len(series)-1]
		if last.AvgDelivery <= first.AvgDelivery {
			t.Errorf("load %.0f%%: delivery time not growing with N (%.2f at N=%d vs %.2f at N=%d)",
				load, first.AvgDelivery, first.N, last.AvgDelivery, last.N)
		}
	}
	// Injection wait must be zero at 0% load and positive at 100%.
	for _, p := range points {
		if p.LoadPct == 0 && (p.AvgWait != 0 || p.Injected != 0) {
			t.Errorf("N=%d: static run has injections", p.N)
		}
		if p.LoadPct == 100 && p.AvgWait <= 0 {
			t.Errorf("N=%d: saturated run has zero injection wait", p.N)
		}
	}

	fig3 := Fig3Table(points)
	fig4 := Fig4Table(points)
	var buf bytes.Buffer
	if err := fig3.Render(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "100% injectors") {
		t.Fatalf("figure 3 table malformed:\n%s", buf.String())
	}
	if len(fig4.Rows) != len(opt.networkSizes()) {
		t.Fatalf("figure 4 rows = %d", len(fig4.Rows))
	}

	slope, r2 := LinearityReport(points, func(p LoadPoint) float64 { return p.AvgDelivery }, 100)
	if slope <= 0 {
		t.Errorf("delivery-vs-N slope %.3f not positive", slope)
	}
	if r2 < 0.7 {
		t.Errorf("delivery-vs-N fit R² = %.3f, expected strongly linear", r2)
	}
}

// TestSpeedupSweepShape: Figure 5/6 must produce a rate for every cell and
// an efficiency ≤ a small constant (super-linear flukes aside).
func TestSpeedupSweepShape(t *testing.T) {
	opt := Options{Steps: 15, Seed: 3}
	points, err := SpeedupSweep(opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != len(opt.networkSizes())*len(peSweep) {
		t.Fatalf("got %d points", len(points))
	}
	for _, p := range points {
		if p.EventRate <= 0 || p.Committed <= 0 {
			t.Fatalf("empty cell %+v", p)
		}
	}
	// Committed work must not depend on the PE count (determinism).
	forEachN(points, func(n int, row []SpeedupPoint) {
		want := row[0].Committed
		for _, p := range row {
			if p.Committed != want {
				t.Errorf("N=%d: committed differs across PE counts: %d vs %d", n, p.Committed, want)
			}
		}
	})
	if eff := Efficiency(points, opt.networkSizes()[0], 2); eff <= 0 {
		t.Errorf("efficiency %.3f", eff)
	}
	tab5, tab6 := Fig5Table(points), Fig6Table(points)
	if len(tab5.Rows) == 0 || len(tab6.Rows) == 0 {
		t.Fatal("empty speed-up tables")
	}
}

// TestKPSweepShape: Figure 7/8 must fill the grid; identical committed
// counts across KP settings (determinism) and present rollback counters.
func TestKPSweepShape(t *testing.T) {
	opt := Options{Steps: 15, Seed: 4, PEs: 2}
	points, err := KPSweep(opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) == 0 {
		t.Fatal("no KP points")
	}
	committed := map[int]int64{}
	for _, p := range points {
		if p.EventRate <= 0 {
			t.Fatalf("empty cell %+v", p)
		}
		if prev, ok := committed[p.N]; ok && prev != p.Committed {
			t.Errorf("N=%d: committed varies with KP count: %d vs %d", p.N, prev, p.Committed)
		}
		committed[p.N] = p.Committed
	}
	tab7, tab8 := Fig7Table(points), Fig8Table(points)
	if len(tab7.Rows) == 0 || len(tab8.Rows) == 0 {
		t.Fatal("empty KP tables")
	}
	var buf bytes.Buffer
	if err := tab7.Render(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "16x16") {
		t.Fatalf("figure 7 table malformed:\n%s", buf.String())
	}
}

// TestDeterminism is the Attachment 3 reproduction at harness level.
func TestDeterminism(t *testing.T) {
	res, err := Determinism(Options{Steps: 30, Seed: 5, PEs: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Equal {
		t.Fatalf("sequential and parallel totals differ:\nseq: %+v\npar: %+v", res.Sequential, res.Parallel)
	}
	if res.Sequential.Delivered == 0 {
		t.Fatal("determinism check ran an empty simulation")
	}
}

// TestBaselineSweep: every policy must appear with deliveries; the paper's
// policy must not be wildly worse than greedy on the saturated torus.
func TestBaselineSweep(t *testing.T) {
	points, err := BaselineSweep(Options{Steps: 40, Seed: 6, PEs: 2})
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, p := range points {
		seen[p.Policy] = true
		if p.Delivered == 0 {
			t.Fatalf("policy %s N=%d delivered nothing", p.Policy, p.N)
		}
	}
	if len(seen) != 4 {
		t.Fatalf("expected 4 policies, saw %v", seen)
	}
	if tab := BaselineTable(points); len(tab.Rows) != len(points) {
		t.Fatal("baseline table row mismatch")
	}
}

// TestHeartbeatAblation: heartbeats must add exactly routers×steps events.
func TestHeartbeatAblation(t *testing.T) {
	opt := Options{Steps: 20, Seed: 8, PEs: 2}
	points, err := HeartbeatAblation(opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 2 {
		t.Fatalf("got %d points", len(points))
	}
	extra := points[1].Committed - points[0].Committed
	want := int64(16 * 16 * opt.Steps)
	if extra != want {
		t.Fatalf("heartbeat overhead %d events, want %d", extra, want)
	}
	if tab := HeartbeatTable(points); len(tab.Rows) != 2 {
		t.Fatal("heartbeat table malformed")
	}
}

// TestProgressWriter: the progress stream must receive one line per run.
func TestProgressWriter(t *testing.T) {
	var buf bytes.Buffer
	opt := Options{Steps: 10, Seed: 9, PEs: 2, Progress: &buf}
	points, err := HeartbeatAblation(opt)
	if err != nil {
		t.Fatal(err)
	}
	if want := len(points); strings.Count(buf.String(), "\n") != want {
		t.Fatalf("progress lines = %d, want %d", strings.Count(buf.String(), "\n"), want)
	}
}
