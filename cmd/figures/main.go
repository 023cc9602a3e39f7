// Command figures regenerates the report's figures as aligned tables (or
// CSV) from fresh simulation runs. Each figure corresponds to one sweep of
// internal/experiments; see DESIGN.md's experiment index.
//
//	figures -fig 3           # delivery time vs N (Figure 3)
//	figures -fig 3 -chart    # with the ASCII curve rendering
//	figures -fig all -full   # every figure at report scale (slow!)
//	figures -fig 7 -csv      # machine-readable output
//	figures -fig all -out d/ # also write one CSV file per table
//
// Figure names: 3, 4, 5, 6, 7, 8, determinism, baselines, heartbeat,
// distance, rates, tuning, sync, patterns, memory, topology, warmup, all.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/experiments"
	"repro/internal/stats"
)

func main() {
	var (
		fig      = flag.String("fig", "all", "figure to regenerate: 3,4,5,6,7,8,determinism,baselines,heartbeat,distance,rates,tuning,sync,patterns,memory,topology,warmup,all")
		full     = flag.Bool("full", false, "report-scale sweeps (N up to 256; takes a long time)")
		steps    = flag.Int("steps", 0, "override simulation length in time steps (0 = per-figure default)")
		seed     = flag.Uint64("seed", 1, "random seed")
		pes      = flag.Int("pes", 0, "PE count for non-PE-sweep figures (0 = default)")
		csvOut   = flag.Bool("csv", false, "emit CSV instead of aligned tables")
		outDir   = flag.String("out", "", "directory to also write each table as a CSV file")
		chart    = flag.Bool("chart", false, "also draw ASCII charts for the curve figures")
		progress = flag.Bool("progress", true, "print per-run progress to stderr")
	)
	flag.Parse()

	opt := experiments.Options{Full: *full, Steps: *steps, Seed: *seed, PEs: *pes}
	if *progress {
		opt.Progress = os.Stderr
	}

	run := func(name string) error {
		switch name {
		case "3", "4":
			points, err := experiments.DeliverySweep(opt)
			if err != nil {
				return err
			}
			if name == "3" || *fig == "all" {
				emit("fig3", experiments.Fig3Table(points), *csvOut, *outDir)
				plot(*chart, experiments.Fig3Chart(points))
				slope, r2 := experiments.LinearityReport(points,
					func(p experiments.LoadPoint) float64 { return p.AvgDelivery }, 100)
				fmt.Printf("linearity (100%% load): slope=%.3f steps/N, R²=%.3f\n\n", slope, r2)
			}
			if name == "4" || *fig == "all" {
				emit("fig4", experiments.Fig4Table(points), *csvOut, *outDir)
				plot(*chart, experiments.Fig4Chart(points))
				slope, r2 := experiments.LinearityReport(points,
					func(p experiments.LoadPoint) float64 { return p.AvgWait }, 100)
				fmt.Printf("linearity (100%% load): slope=%.3f steps/N, R²=%.3f\n\n", slope, r2)
			}
			return nil
		case "5", "6":
			points, err := experiments.SpeedupSweep(opt)
			if err != nil {
				return err
			}
			if name == "5" || *fig == "all" {
				emit("fig5", experiments.Fig5Table(points), *csvOut, *outDir)
				plot(*chart, experiments.Fig5Chart(points))
			}
			if name == "6" || *fig == "all" {
				emit("fig6", experiments.Fig6Table(points), *csvOut, *outDir)
			}
			return nil
		case "7", "8":
			points, err := experiments.KPSweep(opt)
			if err != nil {
				return err
			}
			if name == "7" || *fig == "all" {
				emit("fig7", experiments.Fig7Table(points), *csvOut, *outDir)
				plot(*chart, experiments.Fig7Chart(points))
			}
			if name == "8" || *fig == "all" {
				emit("fig8", experiments.Fig8Table(points), *csvOut, *outDir)
				plot(*chart, experiments.Fig8Chart(points))
			}
			return nil
		case "determinism":
			res, err := experiments.Determinism(opt)
			if err != nil {
				return err
			}
			fmt.Printf("Attachment 3: determinism check (sequential vs %d PEs / %d KPs)\n", res.PEs, res.KPs)
			fmt.Printf("sequential:\n%v", res.Sequential)
			fmt.Printf("parallel:\n%v", res.Parallel)
			if res.Equal {
				fmt.Println("RESULT: identical — the parallel model is deterministic and repeatable")
			} else {
				fmt.Println("RESULT: MISMATCH — determinism violated")
				os.Exit(1)
			}
			fmt.Println()
			return nil
		case "baselines":
			points, err := experiments.BaselineSweep(opt)
			if err != nil {
				return err
			}
			emit("baselines", experiments.BaselineTable(points), *csvOut, *outDir)
			return nil
		case "heartbeat":
			points, err := experiments.HeartbeatAblation(opt)
			if err != nil {
				return err
			}
			emit("heartbeat", experiments.HeartbeatTable(points), *csvOut, *outDir)
			return nil
		case "distance":
			points, err := experiments.DistanceProfile(opt)
			if err != nil {
				return err
			}
			emit("distance", experiments.DistanceProfileTable(points), *csvOut, *outDir)
			plot(*chart, experiments.DistanceChart(points))
			slope, r2 := experiments.ProfileLinearity(points)
			fmt.Printf("linearity: slope=%.3f steps/hop, R²=%.3f\n\n", slope, r2)
			return nil
		case "rates":
			points, err := experiments.RateSweep(opt)
			if err != nil {
				return err
			}
			emit("rates", experiments.RateTable(points), *csvOut, *outDir)
			return nil
		case "tuning":
			points, err := experiments.TuningSweep(opt)
			if err != nil {
				return err
			}
			emit("tuning", experiments.TuningTable(points), *csvOut, *outDir)
			return nil
		case "sync":
			points, err := experiments.SyncComparison(opt)
			if err != nil {
				return err
			}
			emit("sync", experiments.SyncTable(points), *csvOut, *outDir)
			return nil
		case "warmup":
			points, err := experiments.Warmup(opt)
			if err != nil {
				return err
			}
			emit("warmup", experiments.WarmupTable(points), *csvOut, *outDir)
			plot(*chart, experiments.WarmupChart(points))
			return nil
		case "topology":
			points, err := experiments.TopologySweep(opt)
			if err != nil {
				return err
			}
			emit("topology", experiments.TopologyTable(points), *csvOut, *outDir)
			return nil
		case "memory":
			points, err := experiments.MemorySweep(opt)
			if err != nil {
				return err
			}
			emit("memory", experiments.MemoryTable(points), *csvOut, *outDir)
			return nil
		case "patterns":
			points, err := experiments.PatternSweep(opt)
			if err != nil {
				return err
			}
			emit("patterns", experiments.PatternTable(points), *csvOut, *outDir)
			return nil
		default:
			return fmt.Errorf("unknown figure %q", name)
		}
	}

	var names []string
	if *fig == "all" {
		names = []string{"3", "5", "7", "determinism", "baselines", "heartbeat", "distance", "rates", "tuning", "sync", "patterns", "memory", "topology", "warmup"}
	} else {
		names = []string{*fig}
	}
	for _, name := range names {
		if err := run(name); err != nil {
			fmt.Fprintln(os.Stderr, "figures:", err)
			os.Exit(1)
		}
	}
}

func emit(name string, t stats.Table, csvOut bool, outDir string) {
	var err error
	if csvOut {
		fmt.Printf("# %s\n", t.Title)
		err = t.RenderCSV(os.Stdout)
	} else {
		err = t.Render(os.Stdout)
		fmt.Println()
	}
	if err == nil && outDir != "" {
		err = writeCSV(outDir, name, t)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "figures:", err)
		os.Exit(1)
	}
}

// plot renders an ASCII chart when charts are enabled.
func plot(enabled bool, c stats.Chart) {
	if !enabled {
		return
	}
	if err := c.Render(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "figures:", err)
		os.Exit(1)
	}
	fmt.Println()
}

// writeCSV saves one table as <dir>/<name>.csv.
func writeCSV(dir, name string, t stats.Table) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, name+".csv"))
	if err != nil {
		return err
	}
	if err := t.RenderCSV(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
