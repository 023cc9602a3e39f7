// Command hotpotato runs one hot-potato routing simulation and prints the
// network statistics block (and, with -kernel, the Time Warp kernel
// statistics), mirroring the report's simulation executable.
//
// Examples:
//
//	hotpotato -n 32 -steps 200
//	hotpotato -n 64 -inject 50 -policy greedy -pes 4 -kps 64
//	hotpotato -n 16 -sequential -seed 7
//
// Crash recovery (Time Warp engine only): -checkpoint-dir publishes a
// crash-atomic checkpoint of the committed state every -checkpoint-every
// GVT rounds; -resume restores the directory's published checkpoint into a
// fresh build of the same configuration and runs only the remaining steps
// (see docs/CHECKPOINT.md):
//
//	hotpotato -n 16 -steps 500 -checkpoint-dir ck
//	hotpotato -n 16 -steps 500 -checkpoint-dir ck -resume
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/hotpotato"
	"repro/internal/profiling"
	"repro/internal/replay"
	"repro/internal/routing"
	"repro/internal/traffic"
)

func main() {
	var (
		n          = flag.Int("n", 32, "network side length (N×N torus)")
		topo       = flag.String("topology", "torus", "topology: torus or mesh")
		steps      = flag.Int("steps", 100, "simulation duration in time steps")
		inject     = flag.Float64("inject", 100, "percentage of routers with injection applications (0-100)")
		fill       = flag.Int("fill", 4, "initial packets per router (0-4)")
		policyName = flag.String("policy", "busch", "routing policy: busch, greedy, dimorder, maxadvance")
		pattern    = flag.String("traffic", "uniform", "traffic pattern: uniform, transpose, complement, tornado, neighbor, hotspot[:frac]")
		absorb     = flag.Bool("absorb-sleeping", true, "absorb sleeping packets at their destination (practical mode)")
		heartbeat  = flag.Bool("heartbeat", false, "schedule per-step HEARTBEAT events at every router")
		seed       = flag.Uint64("seed", 1, "random seed")
		pes        = flag.Int("pes", 0, "processing elements (0 = GOMAXPROCS)")
		kps        = flag.Int("kps", 64, "kernel processes (the report's model uses 64)")
		maxOpt     = flag.Float64("max-optimism", 0, "bound speculation to this many steps beyond GVT (0 = unlimited)")
		sequential = flag.Bool("sequential", false, "run the sequential reference engine instead of Time Warp")
		kernel     = flag.Bool("kernel", false, "also print kernel statistics")
		progress   = flag.Bool("progress", false, "report GVT progress to stderr during long parallel runs")
		ckptDir    = flag.String("checkpoint-dir", "", "publish periodic checkpoints into this directory (Time Warp only)")
		ckptN      = flag.Int("checkpoint-every", 32, "checkpoint cadence in GVT rounds")
		resume     = flag.Bool("resume", false, "restore -checkpoint-dir's published checkpoint before running")
	)
	prof := profiling.AddFlags(flag.CommandLine)
	flag.Parse()
	stop, err := prof.Start()
	if err != nil {
		fatal(err)
	}
	stopProf = stop

	policy, err := routing.ByName(*policyName)
	if err != nil {
		fatal(err)
	}
	traf, err := traffic.ByName(*pattern)
	if err != nil {
		fatal(err)
	}
	cfg := hotpotato.Config{
		N:               *n,
		Topology:        *topo,
		Policy:          policy,
		Traffic:         traf,
		InjectorPercent: *inject,
		AbsorbSleeping:  *absorb,
		InitialFill:     *fill,
		Steps:           *steps,
		Heartbeat:       *heartbeat,
		Seed:            *seed,
		NumPEs:          *pes,
		NumKPs:          *kps,
		MaxOptimism:     core.Time(*maxOpt),
	}

	kind := core.KindOptimistic
	if *sequential {
		if *ckptDir != "" || *resume {
			fatal(fmt.Errorf("checkpointing is a Time Warp feature; drop -sequential"))
		}
		kind = core.KindSequential
	}
	eng, model, err := hotpotato.BuildEngine(kind, cfg)
	if err != nil {
		fatal(err)
	}
	if *progress && !*sequential {
		// Throttle to roughly one line per percent of virtual time.
		stride := core.Time(*steps) / 100
		if stride < 1 {
			stride = 1
		}
		eng.(*core.Simulator).SetRecord(&progressSink{last: -1, stride: stride, steps: *steps})
	}
	if *resume {
		if *ckptDir == "" {
			fatal(fmt.Errorf("-resume needs -checkpoint-dir"))
		}
		cp, err := replay.LoadCheckpoint(*ckptDir)
		if err != nil {
			fatal(err)
		}
		if err := replay.RestoreCheckpoint(cp, eng.(*core.Simulator), nil); err != nil {
			fatal(err)
		}
		fmt.Printf("resumed from checkpoint: gvt=%.2f, %d events already committed\n",
			float64(cp.GVT), cp.Committed)
	}
	if *ckptDir != "" {
		// The CLI run carries no commit recorder, so its checkpoints omit
		// the trace digests; state, RNG streams and the event frontier
		// still travel, which is all a stats run needs to continue.
		w, err := replay.NewCheckpointWriter(*ckptDir, hotpotato.StateCodecName, hotpotato.CodecName, nil)
		if err != nil {
			fatal(err)
		}
		eng.(*core.Simulator).SetCheckpoint(w, *ckptN)
	}
	ks, err := eng.Run()
	if err != nil {
		fatal(err)
	}
	totals := model.Totals(eng)

	fmt.Printf("hot-potato routing: %dx%d %s, policy=%s, %d steps, seed=%d\n",
		*n, *n, cfg.Topology, policy.Name(), *steps, *seed)
	// The memory and comms lines print before the network block: the CLI
	// equality test compares the network statistics across engines, and
	// the pool/comms counters legitimately differ between them.
	fmt.Printf("memory: %d events recycled, pool hit rate %.3f, %d payloads reused\n",
		ks.EventsRecycled, ks.PoolHitRate, ks.PayloadsRecycled)
	fmt.Printf("comms: %d remote msgs in %d batches (avg %.1f), peak drain %d, %d parks, %d wakes\n",
		ks.MailSent, ks.BatchesFlushed, ks.AvgBatchSize, ks.MailboxPeak, ks.Parks, ks.Wakes)
	if ks.GVTRounds > 0 {
		avg := ks.GVTLatency / time.Duration(ks.GVTRounds)
		fmt.Printf("gvt: %d rounds, avg latency %v, %v total wait, %d throttled passes\n",
			ks.GVTRounds, avg.Round(time.Microsecond), ks.GVTWait.Round(time.Microsecond), ks.OptClamps)
	}
	fmt.Print(totals)
	if *kernel {
		fmt.Print(ks)
	}
	if err := stopProf(); err != nil {
		fatal(err)
	}
}

// progressSink is the -progress reporter: a record sink that prints a
// "gvt N / steps" line to stderr whenever the GVT estimate has advanced by
// stride since the last line. GVTRound runs on PE 0's goroutine mid-round,
// so it stays cheap; the other occurrences are ignored.
type progressSink struct {
	last, stride core.Time
	steps        int
}

func (*progressSink) MailBatch(dst, src, n int)                           {}
func (*progressSink) Rollback(pe, kp, events int, secondary, forced bool) {}

func (p *progressSink) GVTRound(round int64, gvt core.Time) {
	if gvt-p.last >= p.stride {
		p.last = gvt
		fmt.Fprintf(os.Stderr, "gvt %.0f / %d\n", float64(gvt), p.steps)
	}
}

// stopProf stops the profiling outputs main armed. fatal runs it too, so a
// failed run still leaves a complete profile and trace.
var stopProf = func() error { return nil }

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "hotpotato:", err)
	stopProf() // the run has already failed; a profiling error adds nothing
	os.Exit(1)
}
