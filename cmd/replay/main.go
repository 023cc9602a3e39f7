// Command replay records, re-executes, inspects and shrinks deterministic
// replay logs (.replay files) for the bundled models. A log captures a
// run's complete recipe — model, engine shape, seed, fault plan — plus
// every injected event and the per-GVT-round trace fingerprints the run
// committed, so a failure found anywhere (CI, the simcheck matrix, a
// soak box) replays bit-for-bit on a developer machine.
//
// Examples:
//
//	replay -record -model hotpotato -pes 2 -seed 7 -o run.replay
//	replay run.replay                    # -mode verify: optimistic re-run
//	replay -mode sequential run.replay   # against the sequential oracle
//	replay -dump run.replay              # decode and print the log
//	replay -shrink run.replay            # minimise a FAILING log
//
//	replay -checkpoint-dir ck run.replay # verify + periodic checkpoints
//	replay -resume -checkpoint-dir ck run.replay   # resume + verify tail
//
// With -checkpoint-dir the optimistic re-run publishes a crash-atomic
// checkpoint into the directory every -checkpoint-every GVT rounds; with
// -resume the run instead restores the directory's published checkpoint
// and verifies the resumed tail (and composed final fingerprint) against
// the recording — the crash-recovery path (see docs/CHECKPOINT.md).
//
// Verify exits 0 when the re-run reproduces every recorded fingerprint,
// 1 when it diverges, 2 on usage or I/O errors.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/core"
	"repro/internal/replay"
	"repro/internal/simcheck"
)

func main() {
	var (
		record   = flag.Bool("record", false, "record a fresh run instead of reading a log")
		dump     = flag.Bool("dump", false, "decode the log and print it")
		shrink   = flag.Bool("shrink", false, "minimise a failing log (delta-debug injections, bisect horizon)")
		mode     = flag.String("mode", "verify", "replay engine: verify (optimistic) or sequential (oracle)")
		out      = flag.String("o", "", "output path for -record / -shrink")
		model    = flag.String("model", "hotpotato", "model to record: "+strings.Join(simcheck.ModelNames(), ", "))
		pes      = flag.Int("pes", 2, "PE count for -record")
		kps      = flag.Int("kps", 8, "KP count for -record")
		seed     = flag.Uint64("seed", 1, "model seed for -record")
		end      = flag.Float64("end", 0, "virtual-time horizon for -record (0 = model default)")
		mutation = flag.String("mutation", "", "arm a seeded bug when recording (demo; see simcheck -mutation)")
		faults   = flag.String("faults", "", "kernel fault plan when recording: default or burst (empty = clean)")
		verbose  = flag.Bool("v", false, "verbose: shrink progress, full dump")
		ckptDir  = flag.String("checkpoint-dir", "", "publish periodic checkpoints into this directory during verify")
		ckptN    = flag.Int("checkpoint-every", simcheck.CheckpointEvery, "checkpoint cadence in GVT rounds")
		resume   = flag.Bool("resume", false, "restore -checkpoint-dir's published checkpoint and verify the resumed run")
	)
	flag.Parse()

	logf := func(string, ...any) {}
	if *verbose {
		logf = func(format string, args ...any) { fmt.Fprintf(os.Stderr, format+"\n", args...) }
	}

	if *record {
		if flag.NArg() > 0 {
			fatal(fmt.Errorf("-record takes no input file (got %v)", flag.Args()))
		}
		if *out == "" {
			fatal(fmt.Errorf("-record needs -o OUT.replay"))
		}
		spec := simcheck.SpecForCell(simcheck.Cell{
			Model:    *model,
			PEs:      *pes,
			KPs:      *kps,
			Seed:     *seed,
			Mutation: simcheck.Mutation(*mutation),
			Faults:   faultPlan(*faults),
		})
		spec.EndTime = core.Time(*end)
		lg, err := simcheck.Record(spec)
		if err != nil {
			fatal(err)
		}
		if err := replay.WriteFile(*out, lg); err != nil {
			fatal(err)
		}
		fmt.Printf("recorded %s: %d injections, %d GVT rounds, %d committed events\n",
			*out, len(lg.Inject), len(lg.Rounds), lg.Final.Committed)
		return
	}

	if flag.NArg() != 1 {
		fatal(fmt.Errorf("need exactly one input .replay file (got %d args)", flag.NArg()))
	}
	path := flag.Arg(0)
	lg, err := replay.ReadFile(path)
	if err != nil {
		fatal(err)
	}

	switch {
	case *dump:
		if err := replay.Dump(os.Stdout, lg, *verbose); err != nil {
			fatal(err)
		}

	case *shrink:
		dst := *out
		if dst == "" {
			dst = strings.TrimSuffix(path, ".replay") + ".min.replay"
		}
		res, err := simcheck.Shrink(lg, logf)
		if err != nil {
			fatal(err)
		}
		if err := replay.WriteFile(dst, res.Log); err != nil {
			fatal(err)
		}
		fmt.Printf("shrunk %s -> %s: %d -> %d injections, horizon %v -> %v (%d test runs)\n",
			path, dst, res.FromInjections, res.ToInjections, res.FromEndTime, res.ToEndTime, res.Tests)

	default:
		var eng core.EngineKind
		switch *mode {
		case "verify":
			eng = core.KindOptimistic
		case "sequential":
			eng = core.KindSequential
		default:
			fatal(fmt.Errorf("unknown -mode %q (verify or sequential)", *mode))
		}
		what := *mode
		var diffs []string
		switch {
		case *resume:
			// Resume is an optimistic-kernel feature; the checkpoint names
			// the state codec, the log names the model.
			if *ckptDir == "" {
				fatal(fmt.Errorf("-resume needs -checkpoint-dir"))
			}
			if eng != core.KindOptimistic {
				fatal(fmt.Errorf("-resume requires -mode verify (the optimistic engine)"))
			}
			what = "resume"
			diffs, err = simcheck.ResumeVerify(lg, *ckptDir)
		case *ckptDir != "":
			if eng != core.KindOptimistic {
				fatal(fmt.Errorf("-checkpoint-dir requires -mode verify (the optimistic engine)"))
			}
			what = "checkpointed verify"
			diffs, err = simcheck.ReplayCheckpointed(lg, *ckptDir, *ckptN)
		default:
			diffs, err = simcheck.Replay(lg, eng)
		}
		if err != nil {
			fatal(err)
		}
		if len(diffs) > 0 {
			fmt.Fprintf(os.Stderr, "replay: %s DIVERGES from recording %s:\n", what, path)
			for _, d := range diffs {
				fmt.Fprintf(os.Stderr, "  %s\n", d)
			}
			os.Exit(1)
		}
		fmt.Printf("replay: %s reproduces %s (%d injections, %d rounds, %d committed events)\n",
			what, path, len(lg.Inject), len(lg.Rounds), lg.Final.Committed)
	}
}

// faultPlan maps the -faults flag to the simcheck adversarial plans, so a
// recorded cell matches what the matrix would have run.
func faultPlan(name string) *core.Faults {
	switch name {
	case "":
		return nil
	case "default":
		return simcheck.DefaultFaults()
	case "burst":
		return simcheck.BurstFaults()
	default:
		fatal(fmt.Errorf("unknown -faults %q (default or burst)", name))
		return nil
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "replay:", err)
	os.Exit(2)
}
