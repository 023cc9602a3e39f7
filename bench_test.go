package repro

// The root benchmarks: every figure of the report through the entries
// cmd/figures draws, and the kernel on its own. EXPERIMENTS.md records the
// correspondence with the report's curves; use `cmd/figures -full` for the
// report-scale sweeps.

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/hotpotato"
	"repro/internal/phold"
)

// benchN is the torus side of the kernel benchmarks.
const benchN = 16

// BenchmarkFigures draws every entry of experiments.Figures, report figures
// and extra studies alike, through the same Sweep, Run records and Render
// that cmd/figures uses. Each sub-benchmark reports the committed event rate
// over its sweep's runs. Forty steps keep one iteration of every entry near
// seven seconds on two cores.
func BenchmarkFigures(b *testing.B) {
	opt := experiments.Options{Steps: 40, Seed: 1}
	for _, f := range experiments.Figures {
		b.Run(f.Name, func(b *testing.B) {
			var committed int64
			var wall time.Duration
			for i := 0; i < b.N; i++ {
				runs, err := f.Sweep.Runs(opt)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := f.Render(runs); err != nil {
					b.Fatal(err)
				}
				for _, r := range runs {
					committed += r.Stats.Committed
					wall += r.Stats.Wall
				}
			}
			b.ReportMetric(float64(committed)/wall.Seconds(), "events/s")
		})
	}
}

// runHotpotato executes one parallel run and reports kernel stats.
func runHotpotato(b *testing.B, cfg hotpotato.Config) *core.Stats {
	b.Helper()
	sim, _, err := hotpotato.Build(cfg)
	if err != nil {
		b.Fatal(err)
	}
	ks, err := sim.Run()
	if err != nil {
		b.Fatal(err)
	}
	return ks
}

// BenchmarkKernelTorusComms is the cross-PE-traffic benchmark: the
// hot-potato torus with a striped KP→PE placement, so nearly every packet
// hop is a remote message. Where BenchmarkKernelPHOLD tracks the pending
// queue and event loop, this number moves with the kernel's communication
// layer — mailbox handoff, send coalescing and idle parking.
func BenchmarkKernelTorusComms(b *testing.B) {
	for _, pes := range []int{1, 4} {
		b.Run(fmt.Sprintf("pe%d", pes), func(b *testing.B) {
			var remote int64
			for i := 0; i < b.N; i++ {
				cfg := hotpotato.DefaultConfig(benchN)
				cfg.Steps = 80
				cfg.Seed = 1
				cfg.NumPEs = pes
				cfg.NumKPs = 256
				cfg.PEOfKP = func(kp int) int { return kp % pes }
				remote += runHotpotato(b, cfg).MailSent
			}
			b.ReportMetric(float64(remote)/float64(b.N), "remote-msgs/run")
		})
	}
}

// BenchmarkKernelPHOLD is the raw kernel throughput benchmark, the number
// to compare against other PDES engines.
func BenchmarkKernelPHOLD(b *testing.B) {
	for _, pes := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("pe%d", pes), func(b *testing.B) {
			var committed int64
			for i := 0; i < b.N; i++ {
				sim, _, err := phold.Build(phold.Config{
					NumLPs:     4096,
					Population: 8,
					RemoteProb: 0.25,
					EndTime:    20,
					Seed:       1,
					NumPEs:     pes,
				})
				if err != nil {
					b.Fatal(err)
				}
				ks, err := sim.Run()
				if err != nil {
					b.Fatal(err)
				}
				committed += ks.Committed
			}
			b.ReportMetric(float64(committed)/float64(b.N), "events/run")
		})
	}
}

// BenchmarkBuild is construction alone — LP records, placement table,
// random streams, bootstrap events — for the configs of the benchmark's
// phold_tw2 and torus_tw2 workloads (benchmark/workloads.go), the cost its
// setup_s reports.
func BenchmarkBuild(b *testing.B) {
	b.Run("phold_tw2", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := phold.Build(phold.Config{NumLPs: 4096, Population: 8, RemoteProb: 0.5,
				EndTime: 150, NumPEs: 2, Seed: 1}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("torus_tw2", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			cfg := hotpotato.DefaultConfig(32)
			cfg.Steps = 400
			cfg.Seed = 1
			cfg.NumPEs = 2
			if _, _, err := hotpotato.Build(cfg); err != nil {
				b.Fatal(err)
			}
		}
	})
}
