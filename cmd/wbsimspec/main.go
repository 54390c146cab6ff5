// Command wbsimspec is the protocol-level static-analysis gate: it runs
// the speclint passes (annotation well-formedness, virtual-network
// deadlock-freedom, nack-livelock detection, exact reachability
// bookkeeping) over every shipping composition of the coherence tables,
// plus the delta-hygiene pass over every shipping layering. Where
// wbsimlint checks the simulator's Go source, wbsimspec checks the
// protocol the tables encode.
//
// Usage:
//
//	wbsimspec [-json] [-coverage]
//
// With -coverage it additionally runs the directed stimulator suite
// (ExerciseProtocol) and reports, per machine, the statically reachable
// rows the suite never fired — the fuzz-target list for the chaos
// campaign — along with any effects-conformance violations the
// instrumented run recorded.
//
// Exit status: 0 clean, 1 findings reported, 2 operational failure.
package main

import (
	"flag"
	"fmt"

	"wbsim/internal/cli"
	"wbsim/internal/coherence"
	"wbsim/internal/coherence/speclint"
)

// output is the -json document: every finding plus, with -coverage, the
// per-machine fire reports from the directed suite.
type output struct {
	Systems     []string           `json:"systems"`
	Findings    []speclint.Finding `json:"findings"`
	Coverage    []coverageEntry    `json:"coverage,omitempty"`
	Conformance []string           `json:"conformance,omitempty"`
}

// coverageEntry is one machine's directed-suite coverage: the unfired
// rows are exactly the statically-reachable-but-never-exercised set,
// since the reachability pass proves every non-Impossible row of a
// clean composition has a declared producer.
type coverageEntry struct {
	Machine  string   `json:"machine"`
	Fired    int      `json:"fired"`
	Possible int      `json:"possible"`
	Handled  string   `json:"handled"`
	Unfired  []string `json:"unfired,omitempty"`
}

var (
	jsonOut  = flag.Bool("json", false, "emit the findings (and coverage) as JSON")
	coverage = flag.Bool("coverage", false, "run the directed stimulator suite and report statically reachable rows it never fired")
)

func main() { cli.Command{}.Main(run) }

func run([]string) int {
	out := output{Findings: []speclint.Finding{}}
	for _, sys := range coherence.SpecSystems() {
		out.Systems = append(out.Systems, sys.Name)
		out.Findings = append(out.Findings, sys.Analyze()...)
	}
	out.Findings = append(out.Findings, coherence.SpecHygieneFindings()...)

	if *coverage {
		agg := coherence.ExerciseProtocol()
		for _, r := range agg.Reports() {
			out.Coverage = append(out.Coverage, coverageEntry{
				Machine:  r.Machine,
				Fired:    r.Fired,
				Possible: r.Possible,
				Handled:  r.Breakdown(),
				Unfired:  r.Unfired,
			})
		}
		out.Conformance = agg.ConformanceViolations()
	}

	if *jsonOut {
		if code := cli.WriteJSON(out); code != cli.OK {
			return code
		}
	} else {
		for _, f := range out.Findings {
			fmt.Println(f)
		}
		for _, c := range out.Coverage {
			fmt.Printf("%-28s %3d/%3d rows fired (%s)\n", c.Machine, c.Fired, c.Possible, c.Handled)
			for _, u := range c.Unfired {
				fmt.Printf("  never fired: %s\n", u)
			}
		}
		for _, v := range out.Conformance {
			fmt.Printf("conformance: %s\n", v)
		}
		if len(out.Findings) == 0 && len(out.Conformance) == 0 {
			fmt.Printf("wbsimspec: %d systems analyzed, 0 findings\n", len(out.Systems))
		}
	}
	if n := len(out.Findings) + len(out.Conformance); n > 0 {
		return cli.Failf(cli.Found, "%d finding(s) over %d system(s)", n, len(out.Systems))
	}
	return cli.OK
}
