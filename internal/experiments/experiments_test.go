package experiments

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/core"
)

// mustRun executes a sweep's runs, failing the test on an error.
func mustRun(t *testing.T, s Sweep, opt Options) []Run {
	t.Helper()
	runs, err := s.Runs(opt)
	if err != nil {
		t.Fatal(err)
	}
	return runs
}

// mustRender draws a figure from its runs, failing the test on an error.
func mustRender(t *testing.T, render func([]Run) (Output, error), runs []Run) Output {
	t.Helper()
	out, err := render(runs)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

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
	runs := mustRun(t, delivery, opt)
	if len(runs) != len(opt.networkSizes())*len(loads) {
		t.Fatalf("got %d runs", len(runs))
	}
	series := map[float64][]Run{}
	for _, r := range runs {
		if r.Totals.Delivered == 0 {
			t.Fatalf("no deliveries at N=%d load=%.0f", r.Cfg.N, r.Cfg.InjectorPercent)
		}
		series[r.Cfg.InjectorPercent] = append(series[r.Cfg.InjectorPercent], r)
	}
	for load, s := range series {
		first, last := s[0], s[len(s)-1]
		if last.Totals.AvgDelivery <= first.Totals.AvgDelivery {
			t.Errorf("load %.0f%%: delivery time not growing with N (%.2f at N=%d vs %.2f at N=%d)",
				load, first.Totals.AvgDelivery, first.Cfg.N, last.Totals.AvgDelivery, last.Cfg.N)
		}
	}
	// Injection wait must be zero at 0% load and positive at 100%.
	for _, r := range runs {
		if r.Cfg.InjectorPercent == 0 && (r.Totals.AvgWait != 0 || r.Totals.Injected != 0) {
			t.Errorf("N=%d: static run has injections", r.Cfg.N)
		}
		if r.Cfg.InjectorPercent == 100 && r.Totals.AvgWait <= 0 {
			t.Errorf("N=%d: saturated run has zero injection wait", r.Cfg.N)
		}
	}

	fig3 := mustRender(t, fig3, runs).Table
	fig4 := mustRender(t, fig4, runs).Table
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

	slope, r2 := linearity(runs, func(r Run) float64 { return r.Totals.AvgDelivery })
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
	runs := mustRun(t, speedup, opt)
	if len(runs) != len(opt.networkSizes())*len(peSweep) {
		t.Fatalf("got %d runs", len(runs))
	}
	for _, r := range runs {
		if r.Stats.EventRate <= 0 || r.Stats.Committed <= 0 {
			t.Fatalf("empty cell N=%d PEs=%d: %+v", r.Cfg.N, r.Cfg.NumPEs, r.Stats)
		}
	}
	// Committed work must not depend on the PE count (determinism).
	g := byPEs(runs)
	for _, n := range g.rows {
		want := g.at[[2]int{n, g.cols[0]}].Stats.Committed
		for _, pes := range g.cols {
			if got := g.at[[2]int{n, pes}].Stats.Committed; got != want {
				t.Errorf("N=%d: committed differs across PE counts: %d vs %d", n, got, want)
			}
		}
	}
	if eff := efficiency(g, g.at[[2]int{opt.networkSizes()[0], 2}]); eff <= 0 {
		t.Errorf("efficiency %.3f", eff)
	}
	tab5, tab6 := mustRender(t, fig5, runs).Table, mustRender(t, fig6, runs).Table
	if len(tab5.Rows) == 0 || len(tab6.Rows) == 0 {
		t.Fatal("empty speed-up tables")
	}
}

// TestKPSweepShape: Figure 7/8 must fill the grid; identical committed
// counts across KP settings (determinism) and present rollback counters.
func TestKPSweepShape(t *testing.T) {
	opt := Options{Steps: 15, Seed: 4, PEs: 2}
	runs := mustRun(t, kpSweep, opt)
	if len(runs) == 0 {
		t.Fatal("no KP runs")
	}
	committed := map[int]int64{}
	for _, r := range runs {
		if r.Stats.EventRate <= 0 {
			t.Fatalf("empty cell N=%d KPs=%d: %+v", r.Cfg.N, r.Cfg.NumKPs, r.Stats)
		}
		if prev, ok := committed[r.Cfg.N]; ok && prev != r.Stats.Committed {
			t.Errorf("N=%d: committed varies with KP count: %d vs %d", r.Cfg.N, prev, r.Stats.Committed)
		}
		committed[r.Cfg.N] = r.Stats.Committed
	}
	tab7, tab8 := mustRender(t, fig7, runs).Table, mustRender(t, fig8, runs).Table
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
	runs := mustRun(t, determinism, Options{Steps: 30, Seed: 5, PEs: 4})
	seq, par := runs[0].Totals, runs[1].Totals
	if _, err := renderDeterminism(runs); err != nil || seq != par {
		t.Fatalf("sequential and parallel totals differ (%v):\nseq: %+v\npar: %+v", err, seq, par)
	}
	if runs[0].Kind != core.KindSequential || runs[1].Kind != core.KindOptimistic || runs[1].Cfg.NumPEs != 4 {
		t.Fatalf("determinism check ran %s and %s on %d PEs", runs[0].Kind, runs[1].Kind, runs[1].Cfg.NumPEs)
	}
	if seq.Delivered == 0 {
		t.Fatal("determinism check ran an empty simulation")
	}
}

// TestBaselineSweep: every policy must appear with deliveries; the paper's
// policy must not be wildly worse than greedy on the saturated torus.
func TestBaselineSweep(t *testing.T) {
	runs := mustRun(t, baselines, Options{Steps: 40, Seed: 6, PEs: 2})
	seen := map[string]bool{}
	for _, r := range runs {
		seen[r.Cfg.Policy.Name()] = true
		if r.Totals.Delivered == 0 {
			t.Fatalf("policy %s N=%d delivered nothing", r.Cfg.Policy.Name(), r.Cfg.N)
		}
	}
	if len(seen) != 4 {
		t.Fatalf("expected 4 policies, saw %v", seen)
	}
	if tab := mustRender(t, renderBaselines, runs).Table; len(tab.Rows) != len(runs) {
		t.Fatal("baseline table row mismatch")
	}
}

// TestHeartbeatAblation: heartbeats must add exactly routers×steps events.
func TestHeartbeatAblation(t *testing.T) {
	opt := Options{Steps: 20, Seed: 8, PEs: 2}
	runs := mustRun(t, heartbeat, opt)
	if len(runs) != 2 {
		t.Fatalf("got %d runs", len(runs))
	}
	extra := runs[1].Stats.Committed - runs[0].Stats.Committed
	want := int64(16 * 16 * opt.Steps)
	if extra != want {
		t.Fatalf("heartbeat overhead %d events, want %d", extra, want)
	}
	if tab := mustRender(t, renderHeartbeat, runs).Table; len(tab.Rows) != 2 {
		t.Fatal("heartbeat table malformed")
	}
}

// TestProgressWriter: the progress stream must receive one line per run.
func TestProgressWriter(t *testing.T) {
	var buf bytes.Buffer
	opt := Options{Steps: 10, Seed: 9, PEs: 2, Progress: &buf}
	runs := mustRun(t, heartbeat, opt)
	if want := len(runs); strings.Count(buf.String(), "\n") != want {
		t.Fatalf("progress lines = %d, want %d", strings.Count(buf.String(), "\n"), want)
	}
}

// TestEveryFigure draws every entry of Figures, as cmd/figures -fig all
// does: each table row must have its header's width and every chart must
// render.
func TestEveryFigure(t *testing.T) {
	opt := Options{Steps: 3, PEs: 2}
	seen := map[string]bool{}
	for _, f := range Figures {
		if seen[f.Name] {
			t.Fatalf("figure %q listed twice", f.Name)
		}
		seen[f.Name] = true
		out := mustRender(t, f.Render, mustRun(t, *f.Sweep, opt))
		if out.Table.Header == nil && out.Text == "" {
			t.Errorf("figure %s rendered nothing", f.Name)
		}
		for i, row := range out.Table.Rows {
			if len(row) != len(out.Table.Header) {
				t.Errorf("figure %s row %d has %d cells for %d columns", f.Name, i, len(row), len(out.Table.Header))
			}
		}
		if out.Chart != nil {
			var buf bytes.Buffer
			if err := out.Chart.Render(&buf); err != nil {
				t.Errorf("figure %s chart: %v", f.Name, err)
			}
		}
	}
}

// TestTitlesNameWhatRan: a title that states a configuration states the
// one its runs used.
func TestTitlesNameWhatRan(t *testing.T) {
	title := mustRender(t, renderTuning, mustRun(t, tuning, Options{PEs: 2, Steps: 2})).Table.Title
	if !strings.Contains(title, "2 PEs") {
		t.Errorf("tuning at 2 PEs titled %q", title)
	}
	title = mustRender(t, renderRates, mustRun(t, rates, Options{Full: true, Steps: 2})).Table.Title
	if !strings.Contains(title, "32x32") {
		t.Errorf("rates at Full titled %q", title)
	}
}
