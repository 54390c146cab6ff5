// Command litmus runs the TSO litmus suite on the simulated machine and
// reports the outcome histograms, flagging any forbidden outcome.
//
// Usage:
//
//	litmus                 # full suite under every sound variant
//	litmus -test MP        # one test
//	litmus -unsafe         # also demonstrate violations under ooo-unsafe
//	litmus -seeds 200      # more interleavings
//	litmus -parallel 8     # fan seeds across 8 workers (outcomes unchanged)
//	litmus -chaos          # fault-plan × suite × seeds campaign
//	litmus -chaos -plans delay-spikes,reorder -seeds 8
//	litmus -plan hostile -test MP -seeds 1 -max-cycles 1000000
//
// The last form replays one (plan, test, seed) cell — e.g. a hang found
// by the chaos campaign — in a single invocation. Malformed flags
// (-seeds below 1, a negative -jitter, an unknown variant, plan or
// test) exit 2 before anything is simulated.
package main

import (
	"flag"
	"fmt"
	"slices"
	"strings"

	"wbsim/internal/cli"
	"wbsim/internal/coherence"
	"wbsim/internal/core"
	"wbsim/internal/faults"
	"wbsim/internal/litmus"
	"wbsim/internal/sim"
)

var (
	name      = flag.String("test", "", "run only the named test")
	seeds     = flag.Int("seeds", 60, "independent runs per test/variant")
	jitter    = flag.Int("jitter", 24, "max random extra network latency")
	parallel  = flag.Int("parallel", 0, "max concurrent seed simulations (<=0: GOMAXPROCS)")
	unsafe    = flag.Bool("unsafe", false, "also run the ooo-unsafe violation demo")
	chaos     = flag.Bool("chaos", false, "run the fault-plan chaos campaign instead of the plain suite")
	plans     = flag.String("plans", "", "comma-separated fault-plan names for -chaos (default: whole catalog)")
	planName  = flag.String("plan", "", "inject one fault plan into a plain suite run (chaos repro)")
	variants  = flag.String("variants", "", "comma-separated variants (default: all sound variants)")
	maxCycles = flag.Uint64("max-cycles", 0, "cycle budget per run (0: config default)")
	coverage  = flag.Bool("coverage", false, "print the protocol transition-coverage summary after the campaign")
)

func main() { cli.Command{Profiled: true}.Main(run) }

func run([]string) int {
	if *seeds < 1 {
		return cli.Failf(cli.Usage, "-seeds must be at least 1 (got %d)", *seeds)
	}
	if *jitter < 0 {
		return cli.Failf(cli.Usage, "-jitter must not be negative (got %d)", *jitter)
	}

	opts := litmus.Options{
		Seeds:     *seeds,
		Jitter:    *jitter,
		Parallel:  *parallel,
		MaxCycles: sim.Cycle(*maxCycles),
	}
	if *planName != "" {
		p, err := faults.ByName(*planName)
		if err != nil {
			return cli.Failf(cli.Usage, "%v", err)
		}
		opts.Plan = &p
	}

	// Default: every sound variant derived from the protocol registry.
	vs := core.SoundVariants()
	if *variants != "" {
		vs = nil
		for _, word := range strings.Split(*variants, ",") {
			v := core.Variant(strings.TrimSpace(word))
			if _, err := v.Spec(); err != nil {
				return cli.Failf(cli.Usage, "%v", err)
			}
			vs = append(vs, v)
		}
	}

	tests := litmus.Suite()
	if *name != "" {
		i := slices.IndexFunc(tests, func(t litmus.Test) bool { return t.Name == *name })
		if i < 0 {
			return cli.Failf(cli.Usage, "unknown test %q", *name)
		}
		tests = tests[i : i+1]
	}

	if *chaos {
		catalog := faults.Catalog()
		if *plans != "" {
			catalog = nil
			for _, n := range strings.Split(*plans, ",") {
				p, err := faults.ByName(strings.TrimSpace(n))
				if err != nil {
					return cli.Failf(cli.Usage, "%v", err)
				}
				catalog = append(catalog, p)
			}
		}
		summary := litmus.Chaos(tests, vs, catalog, opts)
		fmt.Print(summary.String())
		if *coverage {
			fmt.Print(summary.Coverage.String())
		}
		return cli.Status(summary.Failed())
	}

	failed := false
	cov := coherence.NewCoverageAgg()
	for _, t := range tests {
		for _, v := range vs {
			res := litmus.Run(t, v, opts)
			cov.Merge(res.Coverage)
			status := "ok"
			if res.Violations > 0 {
				status = "TSO VIOLATION"
				failed = true
			}
			if len(res.Errors) > 0 {
				status = fmt.Sprintf("ERRORS (%d hangs, %d panics)", res.Hangs, res.Panics)
				failed = true
			}
			fmt.Printf("%-20s %-13s %-14s %s", t.Name, v, status, res.String())
			for _, err := range res.Errors {
				if se, ok := faults.AsSimError(err); ok {
					fmt.Print(se.Detail())
				} else {
					fmt.Printf("  error: %v\n", err)
				}
			}
		}
	}
	if *coverage {
		fmt.Print(cov.String())
	}
	if *unsafe {
		fmt.Println("--- ooo-unsafe demonstration (violations are EXPECTED here) ---")
		res := litmus.Run(litmus.MPHitUnderMiss(), core.OoOUnsafe, opts)
		fmt.Print(res.String())
		if res.Violations == 0 {
			fmt.Println("note: no violation sampled; try more -seeds")
		}
	}
	return cli.Status(failed)
}
