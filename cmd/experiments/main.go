// Command experiments regenerates the paper's evaluation figures as text
// tables.
//
// Usage:
//
//	experiments fig8          # Figure 8: WritersBlock event rates
//	experiments fig9          # Figure 9: protocol overhead
//	experiments fig10         # Figure 10: stalls + normalized execution time
//	experiments squash        # squash elimination study
//	experiments ablations     # eviction policy / LDT / MSHR / class sweeps
//	experiments protocols     # E23: registry protocols head-to-head (base/wb/tardis)
//	experiments chaos         # fault-plan × litmus-suite × seed campaign
//	experiments all           # everything (chaos excluded; run it explicitly)
//
// Flags go on either side of the name. -cores, -scale, -seed,
// -max-cycles adjust the machine and workload sizes (so a hang found by
// chaos reproduces in one invocation). -parallel bounds the simulations
// run concurrently (default: one per CPU); tables are byte-identical at
// any setting. -json emits the tables plus engine counters — including
// the identity of every failed (workload, config, seed) job — as one
// JSON document instead of text. The engine report goes to stderr in
// text mode so stdout stays a clean table stream. -chaos-seeds sizes
// the chaos campaign. Malformed flags (-cores, -scale or -chaos-seeds
// below 1, an unknown experiment) exit 2 before anything is simulated.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"wbsim/internal/cli"
	"wbsim/internal/core"
	"wbsim/internal/experiments"
	"wbsim/internal/faults"
	"wbsim/internal/litmus"
	"wbsim/internal/sim"
	"wbsim/internal/stats"
)

var (
	cores      = flag.Int("cores", 16, "number of cores")
	scale      = flag.Int("scale", 2, "workload scale factor")
	seed       = flag.Uint64("seed", 1, "simulation seed")
	parallel   = flag.Int("parallel", 0, "max concurrent simulations (<=0: GOMAXPROCS)")
	jsonOut    = flag.Bool("json", false, "emit tables and engine counters as JSON")
	maxCycles  = flag.Uint64("max-cycles", 0, "cycle budget per simulation (0: config default)")
	chaosSeeds = flag.Int("chaos-seeds", 8, "seeds per (plan, test, variant) chaos cell")
	coverage   = flag.Bool("coverage", false, "print the protocol transition-coverage summary after the run")
)

func main() { cli.Command{MaxArgs: 1, Profiled: true}.Main(run) }

func run(args []string) int {
	if *cores < 1 || *scale < 1 || *chaosSeeds < 1 {
		return cli.Failf(cli.Usage, "-cores, -scale and -chaos-seeds must be at least 1 (got %d, %d and %d)",
			*cores, *scale, *chaosSeeds)
	}
	eng := experiments.NewEngine(*parallel)
	opt := experiments.Options{Cores: *cores, Scale: *scale, Seed: *seed, MaxCycles: sim.Cycle(*maxCycles)}

	var tables []*stats.Table
	metrics := map[string]float64{}
	// A failed experiment does not abort the rest: the error is reported
	// (and listed in the JSON document), remaining experiments run, and
	// the exit status ends up 1. The engine already guarantees the same
	// isolation between the simulations inside one experiment.
	var runErrs []string
	add := func(t *stats.Table, err error) {
		if err != nil {
			runErrs = append(runErrs, err.Error())
			cli.Failf(cli.Found, "%v", err)
			return
		}
		tables = append(tables, t)
		if !*jsonOut {
			fmt.Println(t)
		}
	}

	// The experiments in the order `all` runs them. A solo verb is a
	// campaign with a report and exit status of its own; it runs only
	// when named.
	verbs := []struct {
		name string
		run  func()
		solo func() int
	}{
		{name: "fig8", run: func() { add(eng.Fig8(opt)) }},
		{name: "fig9", run: func() { add(eng.Fig9(opt)) }},
		{name: "fig10", run: func() {
			add(eng.Fig10Stalls(opt))
			r, err := eng.Fig10Time(opt)
			if err != nil {
				add(nil, err)
				return
			}
			add(r.Table, nil)
			metrics["fig10.avg-vs-inorder-pct"] = r.AvgVsInOrder
			metrics["fig10.max-vs-inorder-pct"] = r.MaxVsInOrder
			metrics["fig10.avg-vs-ooo-pct"] = r.AvgVsOoO
			metrics["fig10.max-vs-ooo-pct"] = r.MaxVsOoO
			if !*jsonOut {
				fmt.Printf("OoO+WritersBlock vs in-order commit: %.1f%% avg, %.1f%% max\n",
					r.AvgVsInOrder, r.MaxVsInOrder)
				fmt.Printf("OoO+WritersBlock vs safe OoO commit: %.1f%% avg, %.1f%% max\n",
					r.AvgVsOoO, r.MaxVsOoO)
				fmt.Printf("(paper: 15.4%% avg / 41.9%% max, and 10.2%% avg / 28.3%% max)\n\n")
			}
		}},
		{name: "squash", run: func() { add(eng.Squashes(opt)) }},
		{name: "ablations", run: func() {
			add(eng.AblateEvictionPolicy(opt))
			add(eng.AblateLDTSize(opt))
			add(eng.AblateReservedMSHRs(opt))
			add(eng.ClassSweep(opt))
		}},
		{name: "protocols", run: func() { add(eng.ProtocolCompare(opt)) }},
		{name: "chaos", solo: chaos},
	}
	what := "all"
	if len(args) > 0 {
		what = args[0]
	}
	var names []string
	ran := false
	for _, v := range verbs {
		names = append(names, v.name)
		if v.solo != nil && what == v.name {
			return v.solo()
		}
		if v.run != nil && (what == "all" || what == v.name) {
			v.run()
			ran = true
		}
	}
	if !ran {
		return cli.Failf(cli.Usage, "unknown experiment %q (%s|all)", what, strings.Join(names, "|"))
	}

	if *jsonOut {
		doc := struct {
			Tables   []*stats.Table           `json:"tables"`
			Metrics  map[string]float64       `json:"metrics,omitempty"`
			Engine   *stats.Counters          `json:"engine"`
			Failures []experiments.JobFailure `json:"failures,omitempty"`
			Errors   []string                 `json:"errors,omitempty"`
		}{tables, metrics, eng.Report(), eng.Failures(), runErrs}
		if code := cli.WriteJSON(doc); code != cli.OK {
			return code
		}
	} else {
		if *coverage {
			fmt.Print(eng.Coverage().String())
		}
		fmt.Fprintf(os.Stderr, "-- engine report --\n%s", eng.Report())
		for _, f := range eng.Failures() {
			fmt.Fprintf(os.Stderr, "failed job: %s (workload=%s class=%s variant=%s seed=%d scale=%d kind=%s): %s\n",
				f.Label, f.Workload, f.Class, f.Variant, f.Seed, f.Scale, f.Kind, f.Err)
		}
	}
	return cli.Status(len(runErrs) > 0)
}

// chaos runs the fault-plan × litmus-suite × seed campaign.
func chaos() int {
	summary := litmus.Chaos(litmus.Suite(), core.SoundVariants(), faults.Catalog(), litmus.Options{
		Seeds:     *chaosSeeds,
		Jitter:    24,
		Parallel:  *parallel,
		MaxCycles: sim.Cycle(*maxCycles),
	})
	if *jsonOut {
		if code := cli.WriteJSON(summary); code != cli.OK {
			return code
		}
	} else {
		fmt.Print(summary.String())
		if *coverage {
			fmt.Print(summary.Coverage.String())
		}
	}
	return cli.Status(summary.Failed())
}
