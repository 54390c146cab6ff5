// Package litmus provides a litmus-testing framework for the simulated
// machine: small multi-core programs whose architectural outcomes are
// collected across many seeds (with network jitter perturbing message
// interleavings) and checked against the set of TSO-allowed results.
//
// The suite contains the paper's Table 1 message-passing shape (with the
// hit-under-miss warm-up that creates the dangerous reordering), the
// transitive three-core variant of Table 3, and the classic TSO tests
// (SB, LB, IRIW, CoRR, 2+2W, SSL, mutual exclusion).
package litmus

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"wbsim/internal/coherence"
	"wbsim/internal/core"
	"wbsim/internal/faults"
	"wbsim/internal/isa"
	"wbsim/internal/mem"
	"wbsim/internal/runner"
	"wbsim/internal/sim"
)

// Observer names an architectural register of a core whose final value is
// part of the outcome.
type Observer struct {
	Core int
	Reg  isa.Reg
	Name string
}

// MemObserver names a memory word whose final value is part of the
// outcome (checked after full drain).
type MemObserver struct {
	Addr mem.Addr
	Name string
}

// Test is one litmus test.
type Test struct {
	Name  string
	Cores int
	// Build returns fresh per-core programs; rng may be used to insert
	// random delay padding so different seeds explore different timings.
	Build        func(rng *sim.Rand) []*isa.Program
	Observers    []Observer
	MemObservers []MemObserver
	InitMem      map[mem.Addr]mem.Word
	// Forbidden reports whether an outcome violates TSO.
	Forbidden func(v map[string]mem.Word) bool
}

// Result aggregates the outcomes of many runs of one test.
type Result struct {
	Test       string
	Runs       int
	Outcomes   map[string]int // canonical outcome string -> count
	Violations int
	Errors     []error
	Hangs      int // errors classified as watchdog/budget hangs
	Panics     int // errors classified as contained panics
	// Coverage merges the protocol-transition fire counts of every
	// seed's machine (including failed seeds — a hang still exercises
	// transitions). Excluded from JSON: it is a view, not an outcome.
	Coverage *coherence.CoverageAgg `json:"-"`
}

// String renders the outcome histogram.
func (r *Result) String() string {
	keys := make([]string, 0, len(r.Outcomes))
	for k := range r.Outcomes {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	fmt.Fprintf(&b, "%s: %d runs, %d violations\n", r.Test, r.Runs, r.Violations)
	for _, k := range keys {
		fmt.Fprintf(&b, "  %-40s %6d\n", k, r.Outcomes[k])
	}
	return b.String()
}

// Options control a litmus campaign.
type Options struct {
	Seeds  int // number of independent runs
	Jitter int // max random extra network latency per message
	// Parallel bounds the worker goroutines fanning the seeds across
	// cores; <= 0 selects runner.DefaultParallel(). Each seed is a fully
	// independent, deterministic simulation, and seed results are folded
	// into the Result in seed order, so the outcome histogram, violation
	// count, and error list are identical at any parallelism.
	Parallel int
	// Plan, when non-nil, injects the fault plan into every seed's
	// machine (chaos campaigns).
	Plan *faults.Plan
	// MaxCycles overrides the small-config cycle budget when > 0, so a
	// hang found by the chaos campaign reproduces quickly.
	MaxCycles sim.Cycle
	// Watchdog overrides the hang detector (tests set tiny bounds to
	// induce trips on demand).
	Watchdog faults.WatchdogConfig
}

// DefaultOptions are suitable for CI tests.
func DefaultOptions() Options { return Options{Seeds: 60, Jitter: 24} }

// seedOutcome is the result of one seed's run, produced by a worker and
// folded into the Result in seed order.
type seedOutcome struct {
	key       string
	forbidden bool
	err       error
	cov       *coherence.CoverageAgg
}

// Run executes the test under the given system variant, fanning the
// Seeds independent simulations across Parallel workers.
func Run(t Test, variant core.Variant, opts Options) Result {
	outs := make([]seedOutcome, opts.Seeds)
	_ = runner.ForEach(context.Background(), opts.Parallel, opts.Seeds, func(_ context.Context, i int) error {
		outs[i] = runSeed(t, variant, uint64(i+1), opts)
		return nil // per-seed errors are part of the Result, not fatal
	})
	res := Result{Test: t.Name, Outcomes: make(map[string]int), Coverage: coherence.NewCoverageAgg()}
	for _, o := range outs {
		res.Coverage.Merge(o.cov)
		if o.err != nil {
			res.Errors = append(res.Errors, o.err)
			if se, ok := faults.AsSimError(o.err); ok && se.Kind == faults.KindPanic {
				res.Panics++
			} else {
				res.Hangs++
			}
			continue
		}
		res.Outcomes[o.key]++
		res.Runs++
		if o.forbidden {
			res.Violations++
		}
	}
	return res
}

// runSeed executes one fully independent simulation of the test. Panics
// while building the system are contained here (System.Run has its own
// recover boundary), so one bad seed cannot kill the campaign.
func runSeed(t Test, variant core.Variant, seed uint64, opts Options) (out seedOutcome) {
	defer func() {
		if r := recover(); r != nil {
			out = seedOutcome{err: fmt.Errorf("seed %d: %w", seed, faults.PanicError(r, nil))}
		}
	}()
	cfg := core.SmallConfig(t.Cores, variant)
	cfg.Seed = seed
	cfg.JitterMax = opts.Jitter
	cfg.Faults = opts.Plan
	cfg.Watchdog = opts.Watchdog
	if opts.MaxCycles > 0 {
		cfg.MaxCycles = opts.MaxCycles
	}
	rng := sim.NewRand(seed * 0x9e37)
	programs := t.Build(rng)
	sys := core.NewSystem(cfg, programs)
	for a, w := range t.InitMem {
		sys.InitWord(a, w)
	}
	if _, err := sys.Run(); err != nil {
		return seedOutcome{err: fmt.Errorf("seed %d: %w", seed, err), cov: sys.Coverage()}
	}
	vals := make(map[string]mem.Word)
	var parts []string
	for _, o := range t.Observers {
		v := sys.Cores[o.Core].Reg(o.Reg)
		vals[o.Name] = v
		parts = append(parts, fmt.Sprintf("%s=%d", o.Name, v))
	}
	for _, o := range t.MemObservers {
		v := finalWord(sys, o.Addr)
		vals[o.Name] = v
		parts = append(parts, fmt.Sprintf("%s=%d", o.Name, v))
	}
	return seedOutcome{
		key:       strings.Join(parts, " "),
		forbidden: t.Forbidden != nil && t.Forbidden(vals),
		cov:       sys.Coverage(),
	}
}

// finalWord reads the architecturally final value of a word.
func finalWord(sys *core.System, addr mem.Addr) mem.Word {
	return sys.ReadWord(addr)
}

// pad emits a random-length dependency chain so different seeds shift the
// relative timing of the cores.
func pad(b *isa.Builder, rng *sim.Rand, max int) {
	if max <= 0 {
		return
	}
	n := rng.Intn(max + 1)
	for i := 0; i < n; i++ {
		b.ALUI(isa.FnAdd, 31, 31, 1)
	}
}

// Test addresses: distinct cache lines mapping to distinct banks.
const (
	addrX    = mem.Addr(0x10040)
	addrY    = mem.Addr(0x20080)
	addrZ    = mem.Addr(0x300c0)
	addrFlag = mem.Addr(0x40100)
	addrLock = mem.Addr(0x50140)
	addrPtr  = mem.Addr(0x60180) // holds a pointer (for late address resolution)
)

// newRand exposes a seeded generator for tests.
func newRand(seed uint64) *sim.Rand { return sim.NewRand(seed * 0x9e37) }
