// Command soaktest runs the randomized soak/chaos harness, simcheck's
// Soak schedule through the same loop as the matrix: a seeded
// schedule of differential episodes rotating models and engines, composing
// kernel fault injectors, squeezing the memory valve, and sweeping kernel
// invariants live while each episode runs. Budgets are wall-clock or
// episode-count; with neither flag the default is a 16-episode smoke. The
// run is a deterministic function of -seed, so any failure line is a
// reproduction recipe — and failing optimistic episodes additionally land
// as shrunk .replay artifacts under -artifacts.
//
// Failures and artifact paths go to stderr; the summary goes to stdout.
// Exit status: 0 clean, 1 failures, 2 usage or setup error.
//
// Examples:
//
//	soaktest                                  # 16-episode smoke
//	soaktest -seed 7 -wall 90s -artifacts out # CI smoke soak
//	soaktest -seed 7 -wall 20m -artifacts out # nightly soak
//	soaktest -models phold -mutation map-order -episodes 2 -artifacts out
//	                                          # self-test: watch it fail
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/profiling"
	"repro/internal/simcheck"
)

func main() {
	var (
		seed      = flag.Uint64("seed", 1, "schedule seed; same seed, same schedule, same fingerprint")
		episodes  = flag.Int("episodes", 0, "episode-count budget (0 = none)")
		wall      = flag.Duration("wall", 0, "wall-clock budget, e.g. 90s or 20m (0 = none)")
		models    = flag.String("models", "", "comma-separated models to rotate (default: all)")
		mutation  = flag.String("mutation", "", fmt.Sprintf("arm a seeded bug (self-test demo), one of %v", simcheck.Mutations()))
		artifacts = flag.String("artifacts", "", "directory for shrunk .replay artifacts of failing optimistic episodes")
		paranoid  = flag.Bool("paranoid", true, "sweep kernel invariants live during every optimistic episode")
		verbose   = flag.Bool("v", false, "log every run, not just failures")
	)
	prof := profiling.AddFlags(flag.CommandLine)
	flag.Parse()
	stop, err := prof.Start()
	if err != nil {
		fatal(err)
	}
	stopProf = stop
	if flag.NArg() > 0 {
		fatal(fmt.Errorf("unexpected arguments: %v", flag.Args()))
	}

	s := simcheck.Soak{
		Seed:     *seed,
		Episodes: *episodes,
		Wall:     *wall,
		Mutation: simcheck.Mutation(*mutation),
		Paranoid: *paranoid,
	}
	if *models != "" {
		s.Models = strings.Split(*models, ",")
	}
	if err := simcheck.Validate(s.Models, nil, s.Mutation); err != nil {
		fatal(err)
	}
	var logf func(string, ...any)
	if *verbose {
		logf = func(format string, args ...any) { fmt.Fprintf(os.Stderr, format+"\n", args...) }
	}

	rep := simcheck.Check(s.Schedule(), *artifacts, logf)

	for _, d := range rep.Divergences {
		fmt.Fprintf(os.Stderr, "FAILURE episode %d: %s\n", d.Index, d)
	}
	for _, a := range rep.Artifacts {
		fmt.Fprintf(os.Stderr, "soaktest: replay artifact %s (inspect with: replay -dump %s)\n", a, a)
	}
	fmt.Printf("soak: seed=%d episodes=%d cells=%d failures=%d fingerprint=%016x\n",
		*seed, rep.Cases, rep.Cells, len(rep.Divergences), rep.Fingerprint)
	fmt.Printf("soak: %d forced rollbacks, %d throttled passes, %d invariant sweeps\n",
		rep.ForcedRollbacks, rep.MemThrottles, rep.InvariantSweeps)
	fmt.Printf("soak: peak %d live events on one PE, heap high-water %.1f MiB, elapsed %v\n",
		rep.PeakLivePE, float64(rep.HeapPeak)/(1<<20), rep.Elapsed.Round(time.Millisecond))
	// Flush profiles before the explicit exit below — deferred calls would
	// not run past os.Exit.
	if err := stopProf(); err != nil {
		fatal(err)
	}
	if !rep.OK() {
		os.Exit(1)
	}
}

// stopProf stops the profiling outputs main armed. fatal runs it too, so a
// failed run still leaves a complete profile and trace.
var stopProf = func() error { return nil }

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "soaktest:", err)
	stopProf() // the run has already failed; a profiling error adds nothing
	os.Exit(2)
}
