// Command benchmark is the repository's fixed performance reference: four
// workloads, four end-to-end metrics, and per-layer numbers from a separate
// traced run. It measures every layer from outside, through the packages'
// public API; see README.md in this directory for the tables.
//
//	benchmark/run.sh                        all workloads, end-to-end metrics
//	benchmark/run.sh -workload torus_tw2    one workload
//	benchmark/run.sh -trace 1               per-layer metrics + span file
//	benchmark/run.sh -out a.json            also write the full result
//	benchmark/run.sh -compare a.json b.json compare two results
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics; the exit code is non-zero if any
// repetition failed its check against the sequential oracle.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/hotpotato"
)

// minReps is the fewest measured repetitions a workload is given however
// short -seconds is, so that quartiles exist.
const minReps = 3

// seqRefReps is how many sequential-engine runs a traced invocation times
// for core.speedup_vs_seq (the first is the oracle run itself).
const seqRefReps = 3

// defaultSeconds is the measured time per workload; BENCHMARK.json's
// run_seconds names the same figure for the driver.
const defaultSeconds = 25

type workloadResult struct {
	Name string `json:"name"`
	Why  string `json:"why"`
	// Reps is R: the repetitions that passed their check and were measured
	// (with -trace, the untraced ones; TracedReps counts the traced).
	Reps       int               `json:"reps"`
	TracedReps int               `json:"traced_reps,omitempty"`
	Attempted  int               `json:"attempted"`
	Failed     int               `json:"failed"`
	Committed  int64             `json:"committed"`
	Metrics    map[string]metric `json:"metrics"`
	// Samples are the end-to-end metrics of each repetition in the order
	// measured, for pairing and drift analysis outside this program.
	Samples map[string][]float64 `json:"samples,omitempty"`
	Errors  []string             `json:"errors,omitempty"`

	modelResult any // the oracle's answer, for the cross-workload check
}

type report struct {
	Context   runContext       `json:"context"`
	Seed      uint64           `json:"seed"`
	Seconds   float64          `json:"seconds"`
	Traced    bool             `json:"traced"`
	Workloads []workloadResult `json:"workloads"`
}

func main() {
	var (
		name    = flag.String("workload", "", "run only this workload (default: all four)")
		seed    = flag.Uint64("seed", 1, "workload seed; the only input the workloads are generated from")
		seconds = flag.Float64("seconds", defaultSeconds, "measured seconds per workload")
		trace   = flag.String("trace", "0", "0: end-to-end metrics; 1: traced run, per-layer metrics, spans in <workdir>/spans.json; a file name: the same, spans written there")
		out     = flag.String("out", "", "also write the full result (context, quartiles, sample counts) to this file, for -compare")
		workDir = flag.String("workdir", ".bench_build", "directory for checkpoint directories and the span file")
		compare = flag.Bool("compare", false, "compare two -out files given as arguments instead of measuring")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fatal(errors.New("-compare needs two result files"))
		}
		worse, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if worse {
			os.Exit(1)
		}
		return
	}

	// At most two cores, and never more PEs than that: the reference is the
	// 2-core figure whatever the host offers.
	runtime.GOMAXPROCS(min(runtime.NumCPU(), numPEs))
	if err := os.MkdirAll(*workDir, 0o755); err != nil {
		fatal(err)
	}
	ws := workloads(fullScale, *workDir)
	if *name != "" {
		w, err := findWorkload(ws, *name)
		if err != nil {
			fatal(err)
		}
		ws = []workload{w}
	}
	var tr *tracer
	spanFile := ""
	switch *trace {
	case "0", "":
	case "1":
		tr, spanFile = new(tracer), filepath.Join(*workDir, "spans.json")
	default:
		tr, spanFile = new(tracer), *trace
	}

	rep := report{Context: readContext(*workDir), Seed: *seed, Seconds: *seconds, Traced: tr != nil}
	printContext(os.Stdout, rep)
	budget := time.Duration(*seconds * float64(time.Second))
	for _, w := range ws {
		res := runWorkload(w, fullScale, *seed, budget, tr)
		printWorkload(os.Stdout, res, tr != nil)
		rep.Workloads = append(rep.Workloads, res)
	}
	crossErrs := crossCheck(rep.Workloads)
	for _, e := range crossErrs {
		fmt.Println("FAILED:", e)
	}

	if tr != nil {
		if err := tr.write(spanFile, rep.Context); err != nil {
			fatal(err)
		}
		fmt.Printf("spans: %d spans, %d aggregates in %s\n", len(tr.spans), len(tr.aggregates), spanFile)
	}
	if *out != "" {
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			fatal(err)
		}
		if err := os.WriteFile(*out, data, 0o644); err != nil {
			fatal(err)
		}
	}
	correct := printResultLine(os.Stdout, rep, len(crossErrs) == 0)
	if !correct {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(2)
}

// runWorkload prepares one workload (the untimed oracle run and one
// discarded warm-up repetition) and then measures fresh build → run
// repetitions, closed loop, one at a time, until budget has elapsed.
// With a tracer the repetitions alternate untraced and traced, so both see
// the same drift, and the result carries the per-layer metrics; without,
// the end-to-end ones. End-to-end metrics never come from traced runs.
func runWorkload(w workload, sc scale, seed uint64, budget time.Duration, tr *tracer) workloadResult {
	res := workloadResult{Name: w.name, Why: w.why, Metrics: map[string]metric{}}
	fail := func(err error) {
		res.Failed++
		res.Errors = append(res.Errors, err.Error())
	}

	want, seqWall, err := runOracle(w, seed)
	if err != nil {
		res.Attempted++
		fail(fmt.Errorf("oracle: %w", err))
		return res
	}
	res.Committed, res.modelResult = want.committed, want.result
	seqWalls := []float64{seqWall.Seconds()}
	for i := 1; tr != nil && i < seqRefReps; i++ {
		if _, d, err := runOracle(w, seed); err == nil {
			seqWalls = append(seqWalls, d.Seconds())
		}
	}
	runRep(w, seed, want, nil, 0) // warm-up, discarded

	var untraced, traced []sample
	start := time.Now()
	// A workload that keeps failing its check is given up on, not retried
	// until the budget runs out.
	for n := 0; (time.Since(start) < budget || len(untraced) < minReps) && res.Failed <= 2*minReps; n++ {
		s := runRep(w, seed, want, nil, 0)
		res.Attempted++
		if s.err != nil {
			fail(s.err)
		} else {
			untraced = append(untraced, s)
		}
		if tr == nil {
			continue
		}
		s = runRep(w, seed, want, tr, n)
		res.Attempted++
		if s.err != nil {
			fail(s.err)
		} else {
			traced = append(traced, s)
		}
	}
	res.Reps, res.TracedReps = len(untraced), len(traced)

	var sums map[string]summary
	defs := endToEnd
	switch {
	case len(untraced) == 0:
		return res
	case tr == nil:
		sums, res.Samples = endToEndMetrics(want.committed, untraced)
	case len(traced) == 0:
		return res
	default:
		defs = perLayer
		var pr probes
		p0 := nowNs()
		pr.hold = probeHold(w, sc, seed)
		p1 := nowNs()
		pr.uniform, pr.reverse = probeRNG(sc, seed)
		p2 := nowNs()
		tr.add(span{Name: "probe.eventq", Workload: w.name, Rep: -1, Parent: -1, StartNs: p0, EndNs: p1})
		tr.add(span{Name: "probe.rng", Workload: w.name, Rep: -1, Parent: -1, StartNs: p1, EndNs: p2})
		sums = perLayerMetrics(w, sc, untraced, traced, seqWalls, pr)
	}
	for _, d := range defs {
		res.Metrics[d.name] = metric{sums[d.name], d.unit}
	}
	return res
}

// crossCheck verifies that the three torus workloads, which simulate the
// same network from the same seed on different engines, agree on the model
// result. Each was already held to its own oracle; this catches an oracle
// that depends on how the workload was built.
func crossCheck(results []workloadResult) []string {
	var errs []string
	var first *workloadResult
	for i := range results {
		r := &results[i]
		if _, torus := r.modelResult.(hotpotato.Totals); !torus {
			continue
		}
		if first == nil {
			first = r
		} else if r.modelResult != first.modelResult || r.Committed != first.Committed {
			errs = append(errs, fmt.Sprintf("%s and %s disagree on hotpotato.Totals", first.Name, r.Name))
		}
	}
	return errs
}

func printContext(w io.Writer, rep report) {
	c := rep.Context
	mode := "end-to-end metrics, tracing off"
	if rep.Traced {
		mode = "per-layer metrics, alternating untraced and traced repetitions"
	}
	fmt.Fprintf(w, "benchmark: seed %d, %g s per workload, %s\n", rep.Seed, rep.Seconds, mode)
	fmt.Fprintf(w, "host: %d CPUs, GOMAXPROCS %d, %d PEs, %s, %s, commit %s, work dir on %s\n",
		c.NumCPU, c.GOMAXPROCS, c.NumPEs, c.GoVersion, c.CPUModel, c.GitCommit, c.WorkDirFS)
	if c.Oversubscribed {
		fmt.Fprintln(w, "host: OVERSUBSCRIBED: fewer CPUs than PEs; the 2-PE numbers measure time-slicing")
	}
}

func printWorkload(w io.Writer, res workloadResult, traced bool) {
	fmt.Fprintf(w, "\n%s  R=%d", res.Name, res.Reps)
	if traced {
		fmt.Fprintf(w, " untraced + %d traced", res.TracedReps)
	}
	fmt.Fprintf(w, "  failed %d/%d  committed %d events\n", res.Failed, res.Attempted, res.Committed)
	for _, e := range res.Errors {
		fmt.Fprintln(w, "  FAILED:", e)
	}
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	for _, d := range defs {
		m, ok := res.Metrics[d.name]
		if !ok {
			continue
		}
		fmt.Fprintf(w, "  %-32s %12.6g %-9s", d.name, m.Median, m.Unit)
		if m.N > 1 {
			fmt.Fprintf(w, " q1 %-12.6g q3 %-12.6g n=%d", m.Q1, m.Q3, m.N)
		}
		if d.bound > 0 {
			fmt.Fprintf(w, "  (regression: %g%% %s)", d.bound*100, worseWord(d))
		}
		fmt.Fprintln(w)
	}
}

func worseWord(d metricDef) string {
	if d.better == "higher" {
		return "lower"
	}
	return "higher"
}

// printResultLine prints the machine-readable last line. With one workload
// the metrics carry their plain names; with several, workload.metric.
func printResultLine(w io.Writer, rep report, crossOK bool) (correct bool) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: crossOK, Metrics: map[string]value{}}
	for _, res := range rep.Workloads {
		line.Attempted += res.Attempted
		line.Failed += res.Failed
		for name, m := range res.Metrics {
			if len(rep.Workloads) > 1 {
				name = res.Name + "." + name
			}
			line.Metrics[name] = value{m.Median, m.Unit}
		}
		if res.Reps == 0 {
			line.Correct = false
		}
	}
	if line.Failed > 0 {
		line.Correct = false
	}
	data, err := json.Marshal(line)
	if err != nil {
		fatal(err)
	}
	fmt.Fprintf(w, "\n%s\n", data)
	return line.Correct
}
