// Command phold runs the PHOLD synthetic benchmark against the Time Warp
// kernel and prints kernel statistics — the neutral stressor for tuning
// PE/KP/optimism parameters independent of the routing model.
//
//	phold -lps 4096 -population 8 -remote 0.5 -end 100 -pes 4
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/core"
	"repro/internal/phold"
	"repro/internal/profiling"
)

func main() {
	var (
		lps        = flag.Int("lps", 1024, "number of logical processes")
		population = flag.Int("population", 8, "initial jobs per LP")
		remote     = flag.Float64("remote", 0.5, "probability a job moves to a random LP")
		mean       = flag.Float64("mean", 1.0, "mean exponential hold time")
		lookahead  = flag.Float64("lookahead", 0.1, "constant minimum delay")
		end        = flag.Float64("end", 100, "virtual-time horizon")
		seed       = flag.Uint64("seed", 1, "random seed")
		pes        = flag.Int("pes", 0, "processing elements (0 = GOMAXPROCS)")
		kps        = flag.Int("kps", 0, "kernel processes (0 = default)")
		maxOpt     = flag.Float64("max-optimism", 0, "bound speculation to this far beyond GVT (0 = unlimited)")
		sequential = flag.Bool("sequential", false, "run the sequential reference engine")
	)
	prof := profiling.AddFlags(flag.CommandLine)
	flag.Parse()
	stop, err := prof.Start()
	if err != nil {
		fatal(err)
	}
	stopProf = stop

	cfg := phold.Config{
		NumLPs:      *lps,
		Population:  *population,
		RemoteProb:  *remote,
		MeanDelay:   *mean,
		Lookahead:   *lookahead,
		EndTime:     core.Time(*end),
		Seed:        *seed,
		NumPEs:      *pes,
		NumKPs:      *kps,
		MaxOptimism: core.Time(*maxOpt),
	}

	kind := core.KindOptimistic
	if *sequential {
		kind = core.KindSequential
	}
	eng, m, err := phold.BuildEngine(kind, cfg)
	var ks *core.Stats
	if err == nil {
		ks, err = eng.Run()
	}
	if err != nil {
		fatal(err)
	}
	total := m.TotalProcessed(eng)
	fmt.Printf("phold: %d LPs, population %d, remote %.2f, horizon %g\n",
		*lps, *population, *remote, *end)
	fmt.Printf("  jobs processed: %d\n", total)
	fmt.Print(ks)
	if err := stopProf(); err != nil {
		fatal(err)
	}
}

// stopProf stops the profiling outputs main armed. fatal runs it too, so a
// failed run still leaves a complete profile and trace.
var stopProf = func() error { return nil }

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "phold:", err)
	stopProf() // the run has already failed; a profiling error adds nothing
	os.Exit(1)
}
