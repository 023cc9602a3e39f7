package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"repro/internal/hotpotato"
)

// benchmarkJSON mirrors the root BENCHMARK.json, the file the driver reads.
type benchmarkJSON struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestBenchmarkJSONMatchesTables holds BENCHMARK.json and the tables in
// metrics.go and workloads.go to each other, and both to the naming rules.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(data, &bj); err != nil {
		t.Fatal(err)
	}
	if bj.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, -seconds defaults to %d", bj.RunSeconds, defaultSeconds)
	}
	ws := workloads(smokeScale, t.TempDir())
	if len(bj.Workloads) != len(ws) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in workloads.go", len(bj.Workloads), len(ws))
	}
	for i, w := range ws {
		if bj.Workloads[i].Name != w.name || bj.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), workloads.go %q (%q)",
				i, bj.Workloads[i].Name, bj.Workloads[i].Why, w.name, w.why)
		}
		if !nameRE.MatchString(w.name) || len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("workload %q: bad name, or why longer than one 200-character line", w.name)
		}
	}
	if len(bj.EndToEnd) != len(endToEnd) || len(bj.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d+%d metrics, metrics.go %d+%d",
			len(bj.EndToEnd), len(bj.PerLayer), len(endToEnd), len(perLayer))
	}
	seen := map[string]bool{}
	check := func(d metricDef, name, unit, better string, bound float64) {
		if d.name != name || d.unit != unit || d.better != better || d.bound != bound {
			t.Errorf("metric %q: BENCHMARK.json has (%s, %s, %s, %g), metrics.go (%s, %s, %g)",
				d.name, name, unit, better, bound, d.unit, d.better, d.bound)
		}
		if !nameRE.MatchString(d.name) || !unitRE.MatchString(d.unit) || seen[d.name] {
			t.Errorf("metric %q (%s): bad or repeated name, or bad unit", d.name, d.unit)
		}
		seen[d.name] = true
	}
	for i, d := range endToEnd {
		m := bj.EndToEnd[i]
		check(d, m.Name, m.Unit, m.Better, m.Bound)
	}
	for i, d := range perLayer {
		m := bj.PerLayer[i]
		check(d, m.Name, m.Unit, m.Better, 0)
	}
}

// TestSmoke drives every workload at smoke scale, untraced and traced, and
// checks that every named metric is emitted with its unit, that no
// repetition failed (so the traced wrappers left the committed count and the
// model result exactly as the sequential oracle has them), and that a
// result file compared with itself is never "worse".
func TestSmoke(t *testing.T) {
	dir := t.TempDir()
	const budget = 100 * time.Millisecond
	tr := new(tracer)
	var plain report
	var traced []workloadResult
	for _, w := range workloads(smokeScale, dir) {
		plain.Workloads = append(plain.Workloads, runWorkload(w, smokeScale, 1, budget, nil))
		traced = append(traced, runWorkload(w, smokeScale, 1, budget, tr))
	}
	for i, res := range plain.Workloads {
		tres := traced[i]
		if res.Failed != 0 || tres.Failed != 0 {
			t.Fatalf("%s: failed repetitions: %v %v", res.Name, res.Errors, tres.Errors)
		}
		if res.Reps < minReps || tres.TracedReps < minReps || tres.Committed != res.Committed {
			t.Errorf("%s: %d untraced, %d traced repetitions; committed %d vs %d",
				res.Name, res.Reps, tres.TracedReps, res.Committed, tres.Committed)
		}
		for _, d := range endToEnd {
			// cpu_ns_per_event may read 0 here: a smoke run is shorter than
			// the kernel's CPU-accounting tick.
			if m, ok := res.Metrics[d.name]; !ok || m.Unit != d.unit || (m.Median <= 0 && d.name != "cpu_ns_per_event") {
				t.Errorf("%s: end-to-end metric %s missing, zero or without unit: %+v", res.Name, d.name, m)
			}
		}
		for _, d := range perLayer {
			if m, ok := tres.Metrics[d.name]; !ok || m.Unit != d.unit {
				t.Errorf("%s: per-layer metric %s missing or without unit: %+v", res.Name, d.name, m)
			}
		}
		if len(res.Metrics) != len(endToEnd) || len(tres.Metrics) != len(perLayer) {
			t.Errorf("%s: %d+%d metrics emitted, %d+%d named", res.Name,
				len(res.Metrics), len(tres.Metrics), len(endToEnd), len(perLayer))
		}
		for _, name := range []string{"trace.overhead_ratio", "core.speedup_vs_seq", "eventq.hold_ns", "rng.uniform_ns"} {
			if tres.Metrics[name].Median <= 0 {
				t.Errorf("%s: %s is %g", res.Name, name, tres.Metrics[name].Median)
			}
		}
	}
	if errs := crossCheck(plain.Workloads); len(errs) > 0 {
		t.Error(errs)
	}
	if ck := traced[3].Metrics["replay.checkpoints"].Median; ck <= 0 {
		t.Errorf("torus_ckpt2 published %g checkpoints", ck)
	}

	spans := filepath.Join(dir, "spans.json")
	if err := tr.write(spans, readContext(dir)); err != nil {
		t.Fatal(err)
	}
	var file struct {
		Spans      []span
		Aggregates []aggregate
	}
	if data, err := os.ReadFile(spans); err != nil || json.Unmarshal(data, &file) != nil {
		t.Fatalf("span file unreadable: %v", err)
	}
	names := map[string]bool{}
	for i, s := range file.Spans {
		names[s.Name] = true
		if s.EndNs < s.StartNs || s.Parent >= i {
			t.Fatalf("span %d malformed: %+v", i, s)
		}
	}
	for _, want := range []string{"rep", "build", "run", "totals", "checkpoint", "gvt_interval", "probe.eventq", "probe.rng"} {
		if !names[want] {
			t.Errorf("no %q span in the span file", want)
		}
	}
	if len(file.Aggregates) == 0 {
		t.Error("no aggregates in the span file")
	}

	out := filepath.Join(dir, "a.json")
	data, err := json.Marshal(plain)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(out, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if worse, err := compareFiles(io.Discard, out, out); err != nil || worse {
		t.Errorf("a result compared with itself: worse=%v err=%v", worse, err)
	}
}

func TestVerdict(t *testing.T) {
	rate := metricDef{"events_per_s", "events/s", "higher", 0.10}
	tight := func(v float64) metric { return metric{summary: summary{Median: v, Q1: v * 0.98, Q3: v * 1.02, N: 25}} }
	loose := metric{summary: summary{Median: 100, Q1: 60, Q3: 140, N: 9}}
	for _, c := range []struct {
		a, b metric
		want string
	}{
		{tight(100), tight(100), "ok"},
		{tight(100), tight(95), "ok"},
		{tight(100), tight(120), "ok"},
		{tight(100), tight(85), "worse"},
		{tight(100), loose, "unresolved"},
		{loose, tight(85), "worse"},
	} {
		if _, got := verdict(rate, c.a, c.b); got != c.want {
			t.Errorf("verdict(%v, %v) = %s, want %s", c.a, c.b, got, c.want)
		}
	}
	alloc := metricDef{"allocs_per_event", "allocs", "lower", 0.05}
	if _, got := verdict(alloc, tight(1), tight(1.08)); got != "worse" {
		t.Errorf("8%% more allocations judged %s", got)
	}
}

func TestSummarizeMatchesPythonQuantiles(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
	got := summarize([]float64{46, 1, 29, 2, 22, 4, 16, 7, 11, 37})
	want := summary{Median: 13.5, Q1: 3.5, Q3: 31, N: 10}
	if got != want {
		t.Errorf("summarize = %+v, want %+v", got, want)
	}
}

// TestFailuresAreNotCorrect: a failed repetition, a workload with nothing
// measured, or torus workloads that disagree each make the result line say
// correct=false, which is what main turns into a non-zero exit.
func TestFailuresAreNotCorrect(t *testing.T) {
	ok := workloadResult{Name: "torus_seq", Reps: 3, Attempted: 3, Committed: 10, modelResult: hotpotato.Totals{Delivered: 5}}
	if !printResultLine(io.Discard, report{Workloads: []workloadResult{ok}}, true) {
		t.Error("a clean result judged incorrect")
	}
	failed := ok
	failed.Failed = 1
	empty := ok
	empty.Reps = 0
	for _, res := range []workloadResult{failed, empty} {
		if printResultLine(io.Discard, report{Workloads: []workloadResult{res}}, true) {
			t.Errorf("%+v judged correct", res)
		}
	}
	other := ok
	other.Name, other.modelResult = "torus_tw2", hotpotato.Totals{Delivered: 6}
	phold := workloadResult{Name: "phold_tw2", Committed: 99, modelResult: int64(99)}
	if errs := crossCheck([]workloadResult{ok, phold, ok}); len(errs) != 0 {
		t.Error(errs)
	}
	if errs := crossCheck([]workloadResult{ok, phold, other}); len(errs) != 1 {
		t.Errorf("disagreeing torus workloads gave %d errors", len(errs))
	}
}
