package repro

// One benchmark per figure of the report, at laptop scale. Each bench runs
// the same code path as cmd/figures and publishes the figure's headline
// quantity through b.ReportMetric, so `go test -bench=. -benchmem` prints
// a miniature of every result table. EXPERIMENTS.md records the
// correspondence with the report's curves; use `cmd/figures -full` for the
// report-scale sweeps.

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/eventq"
	"repro/internal/experiments"
	"repro/internal/hotpotato"
	"repro/internal/phold"
	"repro/internal/routing"
	"repro/internal/traffic"
)

// benchN is the torus side used by the per-figure benchmarks.
const benchN = 16

// runHotpotato executes one parallel run and reports kernel stats.
func runHotpotato(b *testing.B, cfg hotpotato.Config) (hotpotato.Totals, *core.Stats) {
	b.Helper()
	sim, model, err := hotpotato.Build(cfg)
	if err != nil {
		b.Fatal(err)
	}
	ks, err := sim.Run()
	if err != nil {
		b.Fatal(err)
	}
	return model.Totals(sim), ks
}

// BenchmarkFig3DeliveryTime measures average packet delivery time across
// the report's injector loads (Figure 3's series at one N).
func BenchmarkFig3DeliveryTime(b *testing.B) {
	for _, load := range []float64{0, 50, 75, 100} {
		b.Run(fmt.Sprintf("load%.0f", load), func(b *testing.B) {
			var delivery float64
			for i := 0; i < b.N; i++ {
				cfg := hotpotato.DefaultConfig(benchN)
				cfg.InjectorPercent = load
				cfg.Steps = 80
				cfg.Seed = uint64(i + 1)
				totals, _ := runHotpotato(b, cfg)
				delivery = totals.AvgDelivery
			}
			b.ReportMetric(delivery, "steps/delivery")
		})
	}
}

// BenchmarkFig4InjectionWait measures the average wait to inject (Figure
// 4's series at one N).
func BenchmarkFig4InjectionWait(b *testing.B) {
	for _, load := range []float64{50, 75, 100} {
		b.Run(fmt.Sprintf("load%.0f", load), func(b *testing.B) {
			var wait float64
			for i := 0; i < b.N; i++ {
				cfg := hotpotato.DefaultConfig(benchN)
				cfg.InjectorPercent = load
				cfg.Steps = 80
				cfg.Seed = uint64(i + 1)
				totals, _ := runHotpotato(b, cfg)
				wait = totals.AvgWait
			}
			b.ReportMetric(wait, "steps/inject")
		})
	}
}

// BenchmarkFig5EventRate measures the committed event rate for the
// report's PE ladder (Figure 5). PE count 1 is the sequential engine.
func BenchmarkFig5EventRate(b *testing.B) {
	for _, pes := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("pe%d", pes), func(b *testing.B) {
			var rate float64
			for i := 0; i < b.N; i++ {
				cfg := hotpotato.DefaultConfig(benchN)
				cfg.Steps = 80
				cfg.Seed = 1
				cfg.NumPEs = pes
				if pes == 1 {
					seq, _, err := hotpotato.BuildSequential(cfg)
					if err != nil {
						b.Fatal(err)
					}
					ks, err := seq.Run()
					if err != nil {
						b.Fatal(err)
					}
					rate = ks.EventRate
				} else {
					_, ks := runHotpotato(b, cfg)
					rate = ks.EventRate
				}
			}
			b.ReportMetric(rate, "events/s")
		})
	}
}

// BenchmarkFig6Efficiency measures speed-up per PE (Figure 6) in one go:
// one sequential baseline plus one 4-PE run per iteration.
func BenchmarkFig6Efficiency(b *testing.B) {
	var eff float64
	for i := 0; i < b.N; i++ {
		cfg := hotpotato.DefaultConfig(benchN)
		cfg.Steps = 80
		cfg.Seed = 1
		seq, _, err := hotpotato.BuildSequential(cfg)
		if err != nil {
			b.Fatal(err)
		}
		base, err := seq.Run()
		if err != nil {
			b.Fatal(err)
		}
		pcfg := cfg
		pcfg.NumPEs = 4
		_, ks := runHotpotato(b, pcfg)
		if base.EventRate > 0 {
			eff = ks.EventRate / (4 * base.EventRate)
		}
	}
	b.ReportMetric(eff, "speedup/PE")
}

// BenchmarkFig7KPRollbacks measures total events rolled back across the
// KP ladder (Figure 7) at fixed PEs.
func BenchmarkFig7KPRollbacks(b *testing.B) {
	for _, kps := range []int{4, 16, 64} {
		b.Run(fmt.Sprintf("kp%d", kps), func(b *testing.B) {
			var rolled float64
			for i := 0; i < b.N; i++ {
				cfg := hotpotato.DefaultConfig(benchN)
				cfg.Steps = 80
				cfg.Seed = 1
				cfg.NumPEs = 4
				cfg.NumKPs = kps
				_, ks := runHotpotato(b, cfg)
				rolled = float64(ks.RolledBackEvents)
			}
			b.ReportMetric(rolled, "rolledback")
		})
	}
}

// BenchmarkFig8KPEventRate measures event rate across the KP ladder
// (Figure 8).
func BenchmarkFig8KPEventRate(b *testing.B) {
	for _, kps := range []int{4, 16, 64} {
		b.Run(fmt.Sprintf("kp%d", kps), func(b *testing.B) {
			var rate float64
			for i := 0; i < b.N; i++ {
				cfg := hotpotato.DefaultConfig(benchN)
				cfg.Steps = 80
				cfg.Seed = 1
				cfg.NumPEs = 4
				cfg.NumKPs = kps
				_, ks := runHotpotato(b, cfg)
				rate = ks.EventRate
			}
			b.ReportMetric(rate, "events/s")
		})
	}
}

// BenchmarkAttachment3Determinism times the determinism check (sequential
// plus parallel run with comparison) — the cost of the correctness gate.
func BenchmarkAttachment3Determinism(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Determinism(experiments.Options{Steps: 40, Seed: uint64(i + 1), PEs: 4})
		if err != nil {
			b.Fatal(err)
		}
		if !res.Equal {
			b.Fatal("determinism violated")
		}
	}
}

// BenchmarkBaselinePolicies compares the paper's algorithm with the
// baseline deflection policies (the report's related-work comparison).
func BenchmarkBaselinePolicies(b *testing.B) {
	for _, name := range routing.Names() {
		b.Run(name, func(b *testing.B) {
			pol, err := routing.ByName(name)
			if err != nil {
				b.Fatal(err)
			}
			var delivery float64
			for i := 0; i < b.N; i++ {
				cfg := hotpotato.DefaultConfig(benchN)
				cfg.Policy = pol
				cfg.Steps = 80
				cfg.Seed = 1
				totals, _ := runHotpotato(b, cfg)
				delivery = totals.AvgDelivery
			}
			b.ReportMetric(delivery, "steps/delivery")
		})
	}
}

// BenchmarkAblationEventQueue compares the pending-queue implementations
// under PHOLD (DESIGN.md ablation).
func BenchmarkAblationEventQueue(b *testing.B) {
	for _, q := range eventq.Kinds() {
		b.Run(q, func(b *testing.B) {
			var rate float64
			for i := 0; i < b.N; i++ {
				sim, _, err := phold.Build(phold.Config{
					NumLPs:     1024,
					Population: 8,
					RemoteProb: 0.5,
					EndTime:    40,
					Seed:       1,
					Queue:      q,
				})
				if err != nil {
					b.Fatal(err)
				}
				ks, err := sim.Run()
				if err != nil {
					b.Fatal(err)
				}
				rate = ks.EventRate
			}
			b.ReportMetric(rate, "events/s")
		})
	}
}

// BenchmarkAblationHeartbeat quantifies the administrative-event overhead
// the report avoids by omitting HEARTBEAT (§3.1.4).
func BenchmarkAblationHeartbeat(b *testing.B) {
	for _, hb := range []bool{false, true} {
		b.Run(fmt.Sprintf("heartbeat=%v", hb), func(b *testing.B) {
			var rate float64
			for i := 0; i < b.N; i++ {
				cfg := hotpotato.DefaultConfig(benchN)
				cfg.Steps = 80
				cfg.Seed = 1
				cfg.Heartbeat = hb
				_, ks := runHotpotato(b, cfg)
				rate = ks.EventRate
			}
			b.ReportMetric(rate, "events/s")
		})
	}
}

// BenchmarkTheoremDistanceProfile measures the delivery-vs-distance curve
// (the SPAA 2001 expected-O(n) check) and reports its slope.
func BenchmarkTheoremDistanceProfile(b *testing.B) {
	var slope float64
	for i := 0; i < b.N; i++ {
		points, err := experiments.DistanceProfile(experiments.Options{Steps: 100, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		slope, _ = experiments.ProfileLinearity(points)
	}
	b.ReportMetric(slope, "steps/hop")
}

// BenchmarkRateSweepWait measures injection wait at light vs saturating
// per-source rates (the variable-rate extension study).
func BenchmarkRateSweepWait(b *testing.B) {
	for _, rate := range []float64{0.25, 1.0} {
		b.Run(fmt.Sprintf("rate%.2f", rate), func(b *testing.B) {
			var wait float64
			for i := 0; i < b.N; i++ {
				cfg := hotpotato.DefaultConfig(benchN)
				cfg.InjectionProb = rate
				cfg.Steps = 80
				cfg.Seed = 1
				totals, _ := runHotpotato(b, cfg)
				wait = totals.AvgWait
			}
			b.ReportMetric(wait, "steps/inject")
		})
	}
}

// BenchmarkTrafficPatterns measures delivery time under the synthetic
// traffic suite (the pattern-sweep experiment).
func BenchmarkTrafficPatterns(b *testing.B) {
	for _, name := range traffic.Names() {
		b.Run(name, func(b *testing.B) {
			pattern, err := traffic.ByName(name)
			if err != nil {
				b.Fatal(err)
			}
			var delivery float64
			for i := 0; i < b.N; i++ {
				cfg := hotpotato.DefaultConfig(benchN)
				cfg.Traffic = pattern
				cfg.Steps = 80
				cfg.Seed = 1
				totals, _ := runHotpotato(b, cfg)
				delivery = totals.AvgDelivery
			}
			b.ReportMetric(delivery, "steps/delivery")
		})
	}
}

// BenchmarkSyncEngines compares the three execution engines on the same
// hot-potato workload (the synchronisation-comparison experiment).
func BenchmarkSyncEngines(b *testing.B) {
	cfg := hotpotato.DefaultConfig(benchN)
	cfg.Steps = 80
	cfg.Seed = 1
	b.Run("sequential", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			seq, _, err := hotpotato.BuildSequential(cfg)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := seq.Run(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("timewarp", func(b *testing.B) {
		pcfg := cfg
		pcfg.NumPEs = 4
		for i := 0; i < b.N; i++ {
			runHotpotato(b, pcfg)
		}
	})
	b.Run("conservative", func(b *testing.B) {
		ccfg := cfg
		ccfg.NumPEs = 4
		for i := 0; i < b.N; i++ {
			cons, _, err := hotpotato.BuildEngine(core.KindConservative, ccfg)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := cons.Run(); err != nil {
				b.Fatal(err)
			}
		}
	})
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
				_, ks := runHotpotato(b, cfg)
				remote += ks.MailSent
			}
			b.ReportMetric(float64(remote)/float64(b.N), "remote-msgs/run")
		})
	}
}

// BenchmarkKernelPHOLD is the raw kernel throughput benchmark, the number
// to compare against other PDES engines.
func BenchmarkKernelPHOLD(b *testing.B) {
	for _, pes := range []int{1, 4} {
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
