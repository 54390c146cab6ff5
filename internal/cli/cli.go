// Package cli is the one front end of the wbsim commands. It parses
// every command line the same way — flags on either side of the
// positional arguments, "--" ending the flags, leftover words refused —
// and fixes the exit status each command returns.
package cli

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"wbsim/internal/profiling"
)

// The exit contract of every command.
const (
	OK    = 0 // ran as asked and found nothing
	Found = 1 // ran and found something: a violation, a finding, a failed simulation
	Usage = 2 // could not run as asked: bad usage, a bad flag value, an unknown name, or a failed profile or JSON write
)

// Status is the exit status of a run that did or did not find something.
func Status(found bool) int {
	if found {
		return Found
	}
	return OK
}

// Command is one command's front end. Its flags live on the default
// flag set, registered before Main runs.
type Command struct {
	// MaxArgs is the most positional arguments the command takes; a
	// negative value takes any number.
	MaxArgs int
	// Profiled adds -cpuprofile, -memprofile and -trace, runs body under
	// them and sets the simulator's GC target (internal/profiling).
	Profiled bool
}

// Main parses the command line, runs body with the positional arguments
// and exits with the status body returns. A malformed flag, -h, or more
// positionals than MaxArgs exit before body runs.
func (c Command) Main(body func(args []string) int) {
	var prof *profiling.Flags
	if c.Profiled {
		prof = profiling.AddFlags()
	}
	args, err := parse(flag.CommandLine, os.Args[1:], c.MaxArgs)
	if err != nil {
		os.Exit(Failf(Usage, "%v", err))
	}
	stop := func() {}
	if c.Profiled {
		profiling.TuneGC()
		if stop, err = prof.Start(); err != nil {
			os.Exit(Failf(Usage, "%v", err))
		}
	}
	code := body(args)
	stop()
	os.Exit(code)
}

// Failf reports a failure on stderr, prefixed with the command's name,
// and returns code for the command to exit with.
func Failf(code int, format string, a ...any) int {
	fmt.Fprintf(os.Stderr, "%s: %s\n", filepath.Base(os.Args[0]), fmt.Sprintf(format, a...))
	return code
}

// WriteJSON writes v to stdout as indented JSON. It returns OK, or Usage
// after reporting a failed write.
func WriteJSON(v any) int {
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		return Failf(Usage, "%v", err)
	}
	return OK
}

// parse parses args into fs with flags allowed before, between and after
// the positional arguments, which it returns; everything after a "--"
// is positional. More than max positionals (max >= 0) is an error.
func parse(fs *flag.FlagSet, args []string, max int) ([]string, error) {
	var flags, pos []string
	for i := 0; i < len(args); i++ {
		a := args[i]
		if a == "--" {
			pos = append(pos, args[i+1:]...)
			break
		}
		if len(a) < 2 || a[0] != '-' {
			pos = append(pos, a)
			continue
		}
		flags = append(flags, a)
		// "-name value": the value is the next word, as the flag package
		// reads it, even when that word is "--" or starts with a dash.
		if name := strings.TrimLeft(a, "-"); !strings.Contains(name, "=") && takesValue(fs, name) && i+1 < len(args) {
			i++
			flags = append(flags, args[i])
		}
	}
	if err := fs.Parse(flags); err != nil {
		return nil, err
	}
	if max >= 0 && len(pos) > max {
		return nil, fmt.Errorf("unexpected arguments %v", pos[max:])
	}
	return pos, nil
}

// takesValue reports whether the flag called name reads the next word as
// its value: every defined flag but a boolean one.
func takesValue(fs *flag.FlagSet, name string) bool {
	f := fs.Lookup(name)
	if f == nil {
		return false
	}
	b, ok := f.Value.(interface{ IsBoolFlag() bool })
	return !ok || !b.IsBoolFlag()
}
