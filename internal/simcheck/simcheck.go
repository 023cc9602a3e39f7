// Package simcheck is the differential correctness harness for the Time
// Warp stack. Its core claim-check is the report's: optimistic parallel
// execution commits *exactly* the trajectory the sequential simulator
// produces. The harness makes that claim testable at scale by running each
// bundled model (hot-potato, PHOLD, qnet) under every engine (sequential,
// conservative, optimistic) across a matrix of PE/KP counts and seeds, and
// comparing run fingerprints: a hash of the committed event trace, a
// per-LP event-order hash (to localise divergence), and a hash of final
// model state.
//
// On top of the clean differential sweep it drives the kernel's fault
// injectors (core.Faults) — forced rollbacks, GVT delay, mailbox
// perturbation, PE throttling — which must leave every fingerprint
// untouched; and it carries deliberately seeded bugs (Mutation) that must
// NOT leave the fingerprints untouched, proving the harness can actually
// see a divergence when one exists.
//
// Two sources feed one differential loop (Check): the fixed matrices
// (Smoke, Full) and the seeded chaos schedule (Soak), an open-ended run of
// randomized episodes with live invariant sweeps and checkpoint/restore
// cuts. A failure is reported as the diverging cell (model, engine, PEs,
// KPs, seed, fault plan), which is the complete recipe for reproducing
// it, and is auto-recorded as a shrunk .replay when an artifact directory
// is given.
package simcheck

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/replay"
	"repro/internal/trace"
)

// Cell is one point of the differential matrix: everything needed to build
// and run a simulation, and therefore everything needed to reproduce a
// failure. Its String form is the failure artifact the harness prints.
type Cell struct {
	Model  string
	Engine core.EngineKind
	PEs    int
	KPs    int
	Seed   uint64
	// Faults is the kernel fault plan; only meaningful for the optimistic
	// engine.
	Faults *core.Faults
	// MaxLive, when positive, arms the kernel's fossil-collection pressure
	// valve (core.Simulator.SetMemoryBound) on optimistic cells: each PE's
	// executed-but-uncommitted events are capped at this budget. The valve
	// is scheduling-only, so a bounded cell must fingerprint identically
	// to its unbounded twin.
	MaxLive int
	// Paranoid enables the kernel's invariant checks on optimistic cells,
	// including the in-run sweep every few scheduler passes — the soak
	// harness's live-invariant mode.
	Paranoid bool
	// Mutation is the deliberately seeded bug, if any (self-test only).
	Mutation Mutation
}

func (c Cell) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "model=%s engine=%s pes=%d kps=%d seed=%d",
		c.Model, c.Engine, c.PEs, c.KPs, c.Seed)
	if c.Faults != nil {
		fmt.Fprintf(&b, " faults=%+v", *c.Faults)
	}
	if c.MaxLive > 0 {
		fmt.Fprintf(&b, " maxlive=%d", c.MaxLive)
	}
	if c.Paranoid {
		b.WriteString(" paranoid")
	}
	if c.Mutation != MutNone {
		fmt.Fprintf(&b, " mutation=%s", c.Mutation)
	}
	return b.String()
}

// Result is one executed cell.
type Result struct {
	Cell    Cell
	FP      replay.Fingerprint
	Stats   *core.Stats
	Summary string
}

// Divergence is one detected mismatch (or failed run) with the artifact
// needed to reproduce it.
type Divergence struct {
	// Index is the failing case's position in its source (Case.Index).
	Index int
	// Ref is the reference cell (zero Cell when Got failed outright).
	Ref Cell
	// Got is the diverging cell.
	Got Cell
	// Details name the fingerprint fields that differ, or the run error.
	Details []string
	// Artifact is the shrunk .replay path, when one was recorded.
	Artifact string
}

func (d Divergence) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "DIVERGENCE at [%s]", d.Got)
	if d.Ref.Model != "" {
		fmt.Fprintf(&b, "\n  reference [%s]", d.Ref)
	}
	for _, detail := range d.Details {
		fmt.Fprintf(&b, "\n  %s", detail)
	}
	if d.Artifact != "" {
		fmt.Fprintf(&b, "\n  artifact: %s", d.Artifact)
	}
	return b.String()
}

// Compare returns the list of fingerprint fields where got differs from
// ref; empty means the runs committed identical results. A ref without
// per-LP hashes (one decoded from a log) skips that comparison.
func Compare(ref, got replay.Fingerprint) []string {
	var diffs []string
	if ref.Committed != got.Committed {
		diffs = append(diffs, fmt.Sprintf("committed events: ref=%d got=%d", ref.Committed, got.Committed))
	}
	if ref.TraceLen != got.TraceLen {
		diffs = append(diffs, fmt.Sprintf("trace length: ref=%d got=%d", ref.TraceLen, got.TraceLen))
	}
	if ref.TraceHash != got.TraceHash {
		diffs = append(diffs, fmt.Sprintf("trace hash: ref=%016x got=%016x", ref.TraceHash, got.TraceHash))
	}
	switch {
	case ref.LPHashes == nil:
	case len(ref.LPHashes) != len(got.LPHashes):
		diffs = append(diffs, fmt.Sprintf("LP count: ref=%d got=%d", len(ref.LPHashes), len(got.LPHashes)))
	default:
		bad := make([]int, 0, 4)
		for i := range ref.LPHashes {
			if ref.LPHashes[i] != got.LPHashes[i] {
				bad = append(bad, i)
			}
		}
		if len(bad) > 0 {
			show := bad
			if len(show) > 8 {
				show = show[:8]
			}
			diffs = append(diffs, fmt.Sprintf("per-LP event order: %d LPs differ, first %v", len(bad), show))
		}
	}
	if ref.StateHash != got.StateHash {
		diffs = append(diffs, fmt.Sprintf("final model state hash: ref=%016x got=%016x", ref.StateHash, got.StateHash))
	}
	return diffs
}

// Matrix spans a differential sweep. Every model runs under every engine it
// supports, for every (PEs, KPs, fault plan, memory bound) combination and every
// seed; each (model, seed) pair is compared against a clean single-PE
// sequential reference run.
type Matrix struct {
	Models  []string
	Engines []core.EngineKind
	PEs     []int
	KPs     []int
	Seeds   []uint64
	// Faults are the kernel fault plans to sweep; nil entries mean a clean
	// run, and non-nil entries apply only to optimistic cells.
	Faults []*core.Faults
	// MemBounds are the per-PE live-event budgets to sweep (Cell.MaxLive);
	// 0 entries mean unbounded, and positive entries apply only to
	// optimistic cells. Empty means unbounded only.
	MemBounds []int
	// Mutation arms a seeded bug in every non-sequential cell; the
	// reference stays clean so the self-test can assert the harness
	// reports the divergence.
	Mutation Mutation
	// AutoRecord, when non-empty, names a directory where every diverging
	// optimistic cell is re-recorded (AutoRecord), shrunk to a
	// minimal failing log, and written as a .replay artifact (the paths
	// land in Report.Artifacts).
	AutoRecord string
}

// Smoke is the CI matrix: both fast models under all three engines, two PE
// counts, two seeds, clean and fault-injected. It finishes in seconds.
func Smoke() Matrix {
	return Matrix{
		Models:    []string{"hotpotato", "phold"},
		Engines:   core.EngineKinds(),
		PEs:       []int{2, 4},
		KPs:       []int{8},
		Seeds:     []uint64{1, 42},
		Faults:    []*core.Faults{nil, DefaultFaults(), BurstFaults()},
		MemBounds: []int{0, 10},
	}
}

// Full is the pre-merge matrix: every model, a single-PE parallel run,
// more seeds, a second KP granularity and a second memory bound.
func Full() Matrix {
	return Matrix{
		Models:    ModelNames(),
		Engines:   core.EngineKinds(),
		PEs:       []int{1, 2, 4},
		KPs:       []int{4, 16},
		Seeds:     []uint64{1, 7, 42, 1234},
		Faults:    []*core.Faults{nil, DefaultFaults(), BurstFaults()},
		MemBounds: []int{0, 6, 24},
	}
}

// DefaultFaults is the standard adversarial plan: frequent shallow forced
// rollbacks, delayed GVT, perturbed delivery order and one throttled PE.
func DefaultFaults() *core.Faults {
	return &core.Faults{
		Seed:          0xC0FFEE,
		RollbackEvery: 2,
		RollbackDepth: 4,
		GVTDelay:      1,
		ShuffleMail:   true,
		ThrottlePEs:   1,
		ThrottleBatch: 1,
	}
}

// BurstFaults stresses the comms layer's delayed-flush coalescing: outgoing
// mail is held for several passes and released as oversized bursts (driving
// the lane-overflow retry path), on top of forced rollbacks and shuffled
// delivery so anti-messages ride the same bursts as the positives they
// chase.
func BurstFaults() *core.Faults {
	return &core.Faults{
		Seed:          0xB00527,
		RollbackEvery: 3,
		RollbackDepth: 4,
		ShuffleMail:   true,
		MailBurst:     4,
	}
}

// Injector is one kernel fault injector (core.Faults) as a composable
// toggle, so tests and the soak schedule can build arbitrary
// compositions from the same canonical list instead of hand-rolling
// plans. Arm enables the injector on a plan; level in [0, 3] scales its
// aggressiveness (0 is the mildest setting, not off).
type Injector struct {
	Name string
	Arm  func(f *core.Faults, level int)
}

// Injectors returns the canonical list of kernel fault injectors, one per
// independent core.Faults mechanism. The pairwise composition tests and
// the soak schedule both draw from this list, so a
// new injector added here is automatically composed everywhere.
func Injectors() []Injector {
	return []Injector{
		{"rollback", func(f *core.Faults, level int) {
			f.RollbackEvery = 4 - min(level, 3)
			f.RollbackDepth = 2 + level
		}},
		{"gvtdelay", func(f *core.Faults, level int) {
			f.GVTDelay = 1 + level
		}},
		{"shuffle", func(f *core.Faults, level int) {
			f.ShuffleMail = true
		}},
		{"burst", func(f *core.Faults, level int) {
			f.MailBurst = 2 + level
		}},
		{"throttle", func(f *core.Faults, level int) {
			f.ThrottlePEs = 1
			f.ThrottleBatch = 1 + level/2
		}},
	}
}

// cases expands the matrix into concrete cases, grouped by (model, seed).
func (m Matrix) cases() []Case {
	var out []Case
	for _, model := range m.Models {
		for _, seed := range m.Seeds {
			for _, c := range m.cells(model, seed) {
				out = append(out, Case{Index: len(out), Cell: c})
			}
		}
	}
	return out
}

// cells expands one (model, seed) of the matrix into concrete cells. The
// sequential engine is deterministic in PEs/KPs/faults, so it collapses to
// one cell per (model, seed); fault plans and memory bounds apply only to
// the optimistic engine. An unknown model keeps every engine: its
// reference run fails, and Check reports that.
func (m Matrix) cells(model string, seed uint64) []Cell {
	var out []Cell
	seen := make(map[string]bool)
	spec, known := models[model]
	for _, eng := range m.Engines {
		if known && !spec.engines[eng] {
			continue
		}
		pes, kps, faults, bounds := m.PEs, m.KPs, m.Faults, m.MemBounds
		if eng == core.KindSequential {
			pes, kps = []int{1}, []int{1}
		}
		if eng != core.KindOptimistic || len(faults) == 0 {
			faults = []*core.Faults{nil}
		}
		if eng != core.KindOptimistic || len(bounds) == 0 {
			bounds = []int{0}
		}
		for _, pe := range pes {
			for _, kp := range kps {
				for _, f := range faults {
					for _, ml := range bounds {
						c := Cell{
							Model: model, Engine: eng,
							PEs: pe, KPs: kp, Seed: seed,
							Faults: f, MaxLive: ml,
						}
						if eng != core.KindSequential {
							c.Mutation = m.Mutation
						}
						if key := c.String(); !seen[key] {
							seen[key] = true
							out = append(out, c)
						}
					}
				}
			}
		}
	}
	return out
}

// Report is the outcome of one Check: a matrix or a soak.
type Report struct {
	// Cases counts the cases drawn: matrix cells or soak episodes.
	Cases int
	// Cells counts executed runs, references included.
	Cells int
	// Divergences holds every mismatch and failed run.
	Divergences []Divergence
	// Artifacts lists every .replay written (also on Divergences).
	Artifacts []string
	// Fingerprint folds every case's recipe and result hashes; two runs of
	// the same source must agree on it.
	Fingerprint uint64
	// ForcedRollbacks, MemThrottles and InvariantSweeps total the kernel
	// counters across cases — evidence the fault plans, the memory valve
	// and the live sweeps actually bit.
	ForcedRollbacks int64
	MemThrottles    int64
	InvariantSweeps int64
	// PeakLivePE is the largest concurrent live-event count any single PE
	// reached in any case.
	PeakLivePE int64
	// HeapPeak is the process heap high-water mark (bytes) sampled after
	// each case.
	HeapPeak uint64
	Elapsed  time.Duration
}

// OK reports whether every case matched its reference.
func (r *Report) OK() bool { return len(r.Divergences) == 0 }

// RunCell builds, instruments and runs one cell.
func RunCell(c Cell) (Result, error) {
	out, err := run(c, plan{})
	if err != nil {
		return Result{}, err
	}
	return out.Result, nil
}

// Run checks every cell of the matrix. logf, when non-nil, receives one
// line per run.
func Run(m Matrix, logf func(format string, args ...any)) *Report {
	return Check(Cases(m.cases()...), m.AutoRecord, logf)
}

// instance is one built, instrumented engine ready to run.
type instance struct {
	eng     core.Engine
	rec     *trace.Recorder
	endTime core.Time
	summary func() string
}

// cellSweepEvery is the in-run invariant sweep cadence paranoid cells run
// with: aggressive enough that corruption surfaces within a few passes of
// appearing, cheap enough for hours-scale soaking.
const cellSweepEvery = 8

// newInstance instruments a built engine for cell c: it wraps every LP
// handler with the cell's mutation (if any) and commit-time trace
// recording, and arms the cell's harness knobs (memory bound, paranoid
// sweeps, fault plan) on the optimistic engine, the one engine that has
// them. Recording is unbounded so the trace hash always covers the whole
// run. A fault plan can come from a recording on disk, so an invalid one
// is an error.
//
// describe renders an event's semantic payload for the trace hash (nil for
// the recorder's default). It must omit reverse-computation scratch (Saved*
// fields): scratch is consumed by Reverse, not restored, so after a
// rollback it carries residue of undone executions — legitimate
// differences between runs that committed identical histories.
func newInstance(c Cell, eng core.Engine, endTime core.Time, summary func() string, describe trace.Describe) (*instance, error) {
	in := &instance{eng: eng, rec: trace.NewRecorder(0), endTime: endTime, summary: summary}
	if sim, ok := eng.(*core.Simulator); ok {
		if c.MaxLive > 0 {
			sim.SetMemoryBound(c.MaxLive)
		}
		if c.Paranoid {
			sim.SetParanoid(cellSweepEvery)
		}
		if err := sim.SetFaults(c.Faults); err != nil {
			return nil, err
		}
	}
	var ledger []peCounter
	var cell *publishCell
	if c.Mutation == MutOwnership {
		// One shared ledger across the cell's wrappers: one slot per LP
		// (each bumped only by its owner's PE) plus a trailing sentinel
		// slot no LP owns, which LP 0's seeded write pokes by direct
		// field access — the ownercheck bug shape without a second
		// goroutine ever touching the same slot.
		ledger = make([]peCounter, eng.NumLPs()+1)
		cell = &publishCell{}
	}
	eng.ForEachLP(func(lp *core.LP) {
		h := lp.Handler
		switch c.Mutation {
		case MutBrokenReverse:
			h = brokenReverse{inner: h}
		case MutMapOrder:
			h = mapOrderNoise{inner: h}
		case MutOwnership:
			h = ownershipNoise{inner: h, ledger: ledger, cell: cell}
		}
		lp.Handler = trace.Wrap(h, in.rec, describe)
	})
	return in, nil
}

// SupportsEngine reports whether the named model ships a builder for eng.
// Schedule generators use it to avoid emitting cells RunCell would reject
// (e.g. qnet has no conservative builder).
func SupportsEngine(model string, eng core.EngineKind) bool {
	spec, ok := models[model]
	return ok && spec.engines[eng]
}

// Validate rejects the first unknown name among models and mutation: the
// names a front-end takes from its user.
func Validate(names []string, mu Mutation) error {
	for _, name := range names {
		if _, ok := models[name]; !ok {
			return fmt.Errorf("unknown model %q (have %v)", name, ModelNames())
		}
	}
	if mu != MutNone && !slices.Contains(Mutations(), mu) {
		return fmt.Errorf("unknown mutation %q (have %v)", mu, Mutations())
	}
	return nil
}

// ModelNames returns the models the harness knows, sorted.
func ModelNames() []string {
	names := make([]string, 0, len(models))
	for name := range models {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}
