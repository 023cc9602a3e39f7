package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

func readReport(path string) (report, error) {
	var rep report
	data, err := os.ReadFile(path)
	if err != nil {
		return rep, err
	}
	if err := json.Unmarshal(data, &rep); err != nil {
		return rep, fmt.Errorf("%s: %w", path, err)
	}
	return rep, nil
}

// verdict judges b against a for one metric. The difference is signed so
// that positive means worse. "worse": b's median is worse by more than the
// bound. "unresolved": it is not, but either median is known less finely
// than the bound, so a regression of that size could hide. "ok" otherwise.
func verdict(d metricDef, a, b metric) (worseBy float64, v string) {
	worseBy = ratio(b.Median-a.Median, a.Median)
	if d.better == "higher" {
		worseBy = -worseBy
	}
	switch {
	case worseBy > d.bound:
		return worseBy, "worse"
	case max(a.resolution(), b.resolution()) > d.bound:
		return worseBy, "unresolved"
	}
	return worseBy, "ok"
}

// compareFiles prints, for every workload × end-to-end metric present in
// both files, the two medians with their quartiles, the difference, the
// bound and the resolution (±), and reports whether any verdict was "worse".
func compareFiles(w io.Writer, pathA, pathB string) (anyWorse bool, err error) {
	a, err := readReport(pathA)
	if err != nil {
		return false, err
	}
	b, err := readReport(pathB)
	if err != nil {
		return false, err
	}
	if a.Traced || b.Traced {
		return false, fmt.Errorf("-compare wants end-to-end results; traced runs carry none")
	}
	fmt.Fprintf(w, "a: %s  seed %d, commit %s, %d CPUs, GOMAXPROCS %d\n", pathA, a.Seed, a.Context.GitCommit, a.Context.NumCPU, a.Context.GOMAXPROCS)
	fmt.Fprintf(w, "b: %s  seed %d, commit %s, %d CPUs, GOMAXPROCS %d\n", pathB, b.Seed, b.Context.GitCommit, b.Context.NumCPU, b.Context.GOMAXPROCS)
	if a.Context.NumCPU != b.Context.NumCPU || a.Context.GOMAXPROCS != b.Context.GOMAXPROCS || a.Context.CPUModel != b.Context.CPUModel {
		fmt.Fprintln(w, "warning: the two results come from different hosts or core counts")
	}
	fmt.Fprintf(w, "%-12s %-17s %12s %25s %12s %25s %8s %6s %6s  %s\n",
		"workload", "metric", "a median", "a [q1, q3] n", "b median", "b [q1, q3] n", "worse by", "bound", "±", "verdict")
	for _, ra := range a.Workloads {
		for _, rb := range b.Workloads {
			if ra.Name != rb.Name {
				continue
			}
			for _, d := range endToEnd {
				ma, okA := ra.Metrics[d.name]
				mb, okB := rb.Metrics[d.name]
				if !okA || !okB {
					continue
				}
				worseBy, v := verdict(d, ma, mb)
				anyWorse = anyWorse || v == "worse"
				quart := func(m metric) string { return fmt.Sprintf("[%.4g, %.4g] %d", m.Q1, m.Q3, m.N) }
				fmt.Fprintf(w, "%-12s %-17s %12.6g %25s %12.6g %25s %+7.1f%% %5.0f%% %5.1f%%  %s\n",
					ra.Name, d.name, ma.Median, quart(ma), mb.Median, quart(mb), worseBy*100, d.bound*100,
					max(ma.resolution(), mb.resolution())*100, v)
			}
		}
	}
	return anyWorse, nil
}
