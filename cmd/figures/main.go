// Command figures regenerates the report's figures as aligned tables (or
// CSV) from fresh simulation runs. It draws the entries of
// experiments.Figures, in that order; `figures -h` lists their names and
// DESIGN.md's experiment index says what each one reproduces.
//
//	figures -fig 3           # delivery time vs N (Figure 3)
//	figures -fig 3 -chart    # with the ASCII curve rendering
//	figures -fig all -full   # every figure at report scale (slow!)
//	figures -fig 7 -csv      # machine-readable output
//	figures -fig all -out d/ # also write one CSV file per table
//
// Under -csv every line that is not CSV (titles, charts, fits, the
// determinism verdict) starts with '#'.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"

	"repro/internal/experiments"
	"repro/internal/stats"
)

func main() {
	var names []string
	for _, f := range experiments.Figures {
		names = append(names, f.Name)
	}
	var (
		fig      = flag.String("fig", "all", "figure to regenerate: "+strings.Join(names, ",")+",all")
		full     = flag.Bool("full", false, "report-scale sweeps (N up to 256; takes a long time)")
		steps    = flag.Int("steps", 0, "override simulation length in time steps (0 = per-figure default)")
		seed     = flag.Uint64("seed", 1, "random seed")
		pes      = flag.Int("pes", 0, "PE count for non-PE-sweep figures (0 = default, 4)")
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
	figs := experiments.Figures
	if *fig != "all" {
		i := slices.Index(names, *fig)
		if i < 0 {
			fail(fmt.Errorf("unknown figure %q", *fig))
		}
		figs = figs[i : i+1]
	}

	// Consecutive figures drawn from one sweep (3 and 4, ...) share its runs.
	var (
		sweep *experiments.Sweep
		runs  []experiments.Run
		err   error
	)
	for _, f := range figs {
		if f.Sweep != sweep {
			if runs, err = f.Sweep.Runs(opt); err != nil {
				fail(err)
			}
			sweep = f.Sweep
		}
		out, err := f.Render(runs)
		if perr := emit(f.Name, out, *csvOut, *chart, *outDir); perr != nil {
			fail(perr)
		}
		if err != nil {
			fail(err)
		}
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "figures:", err)
	os.Exit(1)
}

// emit writes one figure: its table, then its chart (under -chart) and
// text. Under -csv the table is CSV and every other line a '#' comment.
func emit(name string, out experiments.Output, csvOut, chart bool, outDir string) error {
	var text strings.Builder
	if t := out.Table; t.Header != nil {
		if csvOut {
			fmt.Printf("# %s\n", t.Title)
			if err := t.RenderCSV(os.Stdout); err != nil {
				return err
			}
		} else {
			if err := t.Render(&text); err != nil {
				return err
			}
			text.WriteString("\n")
		}
		if outDir != "" {
			if err := writeCSV(outDir, name, t); err != nil {
				return err
			}
		}
	}
	if chart && out.Chart != nil {
		if err := out.Chart.Render(&text); err != nil {
			return err
		}
		text.WriteString("\n")
	}
	if out.Text != "" {
		text.WriteString(out.Text + "\n")
	}
	s := text.String()
	if csvOut {
		var b strings.Builder
		for _, line := range strings.Split(s, "\n") {
			if line != "" {
				b.WriteString("# " + line + "\n")
			}
		}
		s = b.String()
	}
	_, err := os.Stdout.WriteString(s)
	return err
}

// writeCSV saves one table as <dir>/fig<name>.csv for the numbered figures
// and <dir>/<name>.csv for the rest.
func writeCSV(dir, name string, t stats.Table) error {
	if name[0] >= '0' && name[0] <= '9' {
		name = "fig" + name
	}
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
