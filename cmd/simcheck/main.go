// Command simcheck runs the differential correctness matrix: every
// requested model under every requested engine across PE/KP counts, seeds
// and kernel fault plans, comparing committed-trace hashes,
// per-LP event-order hashes and final-state hashes against a clean
// sequential reference. It prints a reproduction artifact for every
// divergence. Exit status: 0 clean, 1 divergences, 2 usage error
// (an unknown -models or -mutation name included).
//
// Examples:
//
//	simcheck                     # CI smoke matrix (seconds)
//	simcheck -full               # pre-merge matrix (minutes)
//	simcheck -models qnet -pes 2,4 -seeds 7,8,9
//	simcheck -mutation broken-reverse   # demo: watch the harness catch a bug
//	simcheck -v                  # one line per cell
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/profiling"
	"repro/internal/simcheck"
)

func main() {
	var (
		full       = flag.Bool("full", false, "run the pre-merge matrix instead of the CI smoke matrix")
		models     = flag.String("models", "", "comma-separated models to run (default: matrix preset)")
		engines    = flag.String("engines", "", "comma-separated engines: sequential,conservative,optimistic")
		pes        = flag.String("pes", "", "comma-separated PE counts")
		kps        = flag.String("kps", "", "comma-separated KP counts")
		seeds      = flag.String("seeds", "", "comma-separated seeds")
		faults     = flag.Bool("faults", true, "also run optimistic cells under the adversarial fault plan")
		mutation   = flag.String("mutation", "", fmt.Sprintf("arm a seeded bug (self-test demo), one of %v", simcheck.Mutations()))
		autorecord = flag.String("autorecord", "", "directory for auto-recorded .replay artifacts of diverging optimistic cells (shrunk; see cmd/replay)")
		verbose    = flag.Bool("v", false, "log every cell, not just failures")
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

	m := simcheck.Smoke()
	if *full {
		m = simcheck.Full()
	}
	if *models != "" {
		m.Models = strings.Split(*models, ",")
	}
	if *engines != "" {
		m.Engines = nil
		for _, e := range strings.Split(*engines, ",") {
			m.Engines = append(m.Engines, core.EngineKind(e))
		}
	}
	if *pes != "" {
		m.PEs = parseInts(*pes, "pes")
	}
	if *kps != "" {
		m.KPs = parseInts(*kps, "kps")
	}
	if *seeds != "" {
		m.Seeds = nil
		for _, s := range strings.Split(*seeds, ",") {
			v, err := strconv.ParseUint(strings.TrimSpace(s), 10, 64)
			if err != nil {
				fatal(fmt.Errorf("bad -seeds entry %q: %v", s, err))
			}
			m.Seeds = append(m.Seeds, v)
		}
	}
	if !*faults {
		m.Faults = []*core.Faults{nil}
	}
	m.AutoRecord = *autorecord
	m.Mutation = simcheck.Mutation(*mutation)
	if err := simcheck.Validate(m.Models, m.Mutation); err != nil {
		fatal(err)
	}

	var logf func(string, ...any)
	if *verbose {
		logf = func(format string, args ...any) { fmt.Printf(format+"\n", args...) }
	}
	rep := simcheck.Run(m, logf)

	for _, d := range rep.Divergences {
		fmt.Fprintln(os.Stderr, d)
	}
	// Artifact paths belong with the failures they reproduce: stderr, so
	// piping stdout (the summary) elsewhere never hides them.
	for _, a := range rep.Artifacts {
		fmt.Fprintf(os.Stderr, "simcheck: replay artifact %s (inspect with: replay -dump %s)\n", a, a)
	}
	fmt.Printf("simcheck: %d cells, %d divergences, %d forced rollbacks injected\n",
		rep.Cells, len(rep.Divergences), rep.ForcedRollbacks)
	// Flush profiles before the explicit exit below — deferred calls would
	// not run past os.Exit.
	if err := stopProf(); err != nil {
		fatal(err)
	}
	if !rep.OK() {
		os.Exit(1)
	}
}

func parseInts(s, name string) []int {
	var out []int
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			fatal(fmt.Errorf("bad -%s entry %q: %v", name, part, err))
		}
		out = append(out, v)
	}
	return out
}

// stopProf stops the profiling outputs main armed. fatal runs it too, so a
// failed run still leaves a complete profile and trace.
var stopProf = func() error { return nil }

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "simcheck:", err)
	stopProf() // the run has already failed; a profiling error adds nothing
	os.Exit(2)
}
