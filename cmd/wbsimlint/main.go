// Command wbsimlint is the project's static-analysis gate: it runs the
// internal/analysis suite (determinism, exhaustive, panicboundary,
// statsdiscipline — see DESIGN.md §9) over the named packages and exits
// non-zero if any invariant is violated.
//
// Usage:
//
//	wbsimlint [-list] [-json] [-run name,name] [packages]
//
// Packages default to ./... . Each diagnostic prints as
//
//	file:line:col: [analyzer] message
//
// or, with -json, as a JSON array of {analyzer, file, line, col,
// message} objects (an empty array when clean) for CI artifact
// consumption.
//
// Exit status: 0 clean, 1 diagnostics reported, 2 operational failure
// (unloadable packages, unknown analyzer).
package main

import (
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"

	"wbsim/internal/analysis"
	"wbsim/internal/cli"
)

// jsonDiag is the -json rendering of one diagnostic.
type jsonDiag struct {
	Analyzer string `json:"analyzer"`
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Message  string `json:"message"`
}

var (
	list    = flag.Bool("list", false, "list the analyzers and exit")
	jsonOut = flag.Bool("json", false, "emit diagnostics as JSON")
	only    = flag.String("run", "", "comma-separated analyzer names to run (default: all)")
)

func main() { cli.Command{MaxArgs: -1}.Main(run) }

func run(patterns []string) int {
	all := analysis.All()
	if *list {
		for _, a := range all {
			fmt.Printf("%-16s %s\n", a.Name, a.Doc)
		}
		return cli.OK
	}

	analyzers := all
	if *only != "" {
		analyzers = nil
		for _, name := range strings.Split(*only, ",") {
			i := slices.IndexFunc(all, func(a *analysis.Analyzer) bool { return a.Name == strings.TrimSpace(name) })
			if i < 0 {
				return cli.Failf(cli.Usage, "unknown analyzer %q (use -list)", name)
			}
			analyzers = append(analyzers, all[i])
		}
	}

	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	wd, err := os.Getwd()
	if err != nil {
		return cli.Failf(cli.Usage, "%v", err)
	}
	fset, pkgs, err := analysis.Load(wd, patterns...)
	if err != nil {
		return cli.Failf(cli.Usage, "%v", err)
	}
	diags, err := analysis.Run(fset, pkgs, analyzers)
	if err != nil {
		return cli.Failf(cli.Usage, "%v", err)
	}
	if *jsonOut {
		out := make([]jsonDiag, 0, len(diags))
		for _, d := range diags {
			out = append(out, jsonDiag{
				Analyzer: d.Analyzer,
				File:     d.Pos.Filename,
				Line:     d.Pos.Line,
				Col:      d.Pos.Column,
				Message:  d.Message,
			})
		}
		if code := cli.WriteJSON(out); code != cli.OK {
			return code
		}
	} else {
		for _, d := range diags {
			fmt.Println(d)
		}
	}
	if len(diags) > 0 {
		return cli.Failf(cli.Found, "%d finding(s) in %d package(s)", len(diags), len(pkgs))
	}
	return cli.OK
}
