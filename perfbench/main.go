// Command perfbench is the child process of the repository benchmark
// (run.py). One invocation executes one workload once, through the same
// library entry points the commands use, checks every simulated output
// against the values recorded in expected.json, and prints one JSON
// report on stdout.
//
// Usage:
//
//	perfbench -workload sim-private -seed 1            # measured run
//	perfbench -workload sim-shared -setup-only         # stop at the entry point
//	perfbench -workload fig9-sweep -trace -cpuprofile p.pprof
//	perfbench -record > expected.json                  # re-record outputs
//
// An untraced run calls System.Run, Engine.Fig9 or check.Explore. A
// traced run (-trace) reaches the same results through exported parts
// only (tracedRun, tracedSweep, tracedExplore) and adds the per-layer
// host times and counts to the report.
package main

import (
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"sort"
	"time"

	"wbsim/internal/profiling"
)

// wbsimcheckGCPercent repeats the collector target cmd/wbsimcheck sets
// (a constant of package main there, so it cannot be imported).
const wbsimcheckGCPercent = 1600

// options are one child invocation's settings.
type options struct {
	seed      uint64
	trace     bool
	setupOnly bool
	// spawned is when the parent started this process; setup time is
	// measured from it.
	spawned time.Time
}

// report is the child's one-line JSON result.
type report struct {
	Workload string `json:"workload"`
	// SetupS is host time before the measured entry point: process
	// start, package init, and every job's Build/Init/NewSystem.
	SetupS float64  `json:"setup_s"`
	Jobs   int      `json:"jobs"`
	Failed int      `json:"failed"`
	Errors []string `json:"errors,omitempty"`
	// Work is the job output the throughput metric divides: simulated
	// cycles for the sim workloads, checker states for modelcheck.
	Work       float64 `json:"work"`
	GCPercent  int     `json:"gc_percent"`
	GoVersion  string  `json:"go_version"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	// Layers holds the per-layer metrics of a traced run.
	Layers map[string]float64 `json:"layers,omitempty"`
}

func (r *report) fail(n int, format string, args ...any) {
	r.Failed += n
	r.Errors = append(r.Errors, fmt.Sprintf(format, args...))
}

// workloadDef is one benchmark workload.
type workloadDef struct {
	// tuneGC applies the collector target of the command the workload
	// stands for.
	tuneGC func()
	run    func(opt options, exp *expected, r *report)
	record func(exp *expected) error
}

var workloads = map[string]workloadDef{
	"sim-private": {tuneGC: profiling.TuneGC, run: simRunner(simPrivate), record: simRecorder(simPrivate)},
	"sim-shared":  {tuneGC: profiling.TuneGC, run: simRunner(simShared), record: simRecorder(simShared)},
	"fig9-sweep":  {tuneGC: profiling.TuneGC, run: runFig9, record: recordFig9},
	"modelcheck":  {tuneGC: tuneCheckerGC, run: runCheck, record: recordCheck},
}

//go:embed expected.json
var expectedJSON []byte

func main() { os.Exit(mainExit()) }

func mainExit() int {
	started := time.Now()
	var (
		name       = flag.String("workload", "", "workload: sim-private, sim-shared, fig9-sweep, modelcheck")
		seed       = flag.Uint64("seed", 1, "simulation seed")
		trace      = flag.Bool("trace", false, "traced run: time every layer through exported parts")
		setupOnly  = flag.Bool("setup-only", false, "stop before the measured entry point")
		spawnNs    = flag.Int64("spawn-ns", 0, "parent's Unix-nanosecond clock when it started this process (0: process start)")
		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile of the run to `file`")
		record     = flag.Bool("record", false, "run every workload and print expected.json")
	)
	flag.Parse()

	if *record {
		return recordAll()
	}
	def, ok := workloads[*name]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown -workload %q\n", *name)
		return 2
	}
	var exp expected
	if err := json.Unmarshal(expectedJSON, &exp); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: expected.json: %v\n", err)
		return 2
	}
	opt := options{seed: *seed, trace: *trace, setupOnly: *setupOnly, spawned: started}
	if *spawnNs > 0 {
		opt.spawned = time.Unix(0, *spawnNs)
	}
	def.tuneGC()

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			return 2
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			return 2
		}
		defer func() {
			pprof.StopCPUProfile()
			if err := f.Close(); err != nil {
				fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			}
		}()
	}

	// SetGCPercent returns the target in effect; put it straight back.
	gcPercent := debug.SetGCPercent(-1)
	debug.SetGCPercent(gcPercent)
	r := &report{
		Workload:   *name,
		GCPercent:  gcPercent,
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
	}
	if opt.trace {
		r.Layers = map[string]float64{}
	}
	def.run(opt, &exp, r)

	out, err := json.Marshal(r)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 2
	}
	fmt.Println(string(out))
	return 0
}

// tuneCheckerGC is cmd/wbsimcheck's collector setting: 1600 unless the
// environment sets GOGC.
func tuneCheckerGC() {
	if os.Getenv("GOGC") == "" {
		debug.SetGCPercent(wbsimcheckGCPercent)
	}
}

// recordAll runs every workload untraced and prints the outputs as the
// contents of expected.json.
func recordAll() int {
	exp := expected{Sim: map[string]simOutcome{}, Check: map[string]checkOutcome{}}
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		if err := workloads[n].record(&exp); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: record %s: %v\n", n, err)
			return 1
		}
	}
	out, err := json.MarshalIndent(exp, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Println(string(out))
	return 0
}
