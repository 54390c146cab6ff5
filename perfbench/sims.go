package main

import (
	"fmt"
	"time"

	"wbsim/internal/core"
	"wbsim/internal/faults"
	"wbsim/internal/workload"
)

// expected holds the outputs recorded from the benchmarked commit. Every
// run compares against them; a mismatch fails the job.
type expected struct {
	Sim   map[string]simOutcome   `json:"sim"`
	Fig9  fig9Outcome             `json:"fig9"`
	Check map[string]checkOutcome `json:"check"`
}

// simOutcome is the checked part of one simulation's core.Results.
type simOutcome struct {
	Cycles        uint64 `json:"cycles"`
	Committed     uint64 `json:"committed"`
	Messages      uint64 `json:"messages"`
	FlitHops      uint64 `json:"flit_hops"`
	BlockedWrites uint64 `json:"blocked_writes"`
	Squashed      uint64 `json:"squashed"`
}

func outcomeOf(res core.Results) simOutcome {
	return simOutcome{
		Cycles:        uint64(res.Cycles),
		Committed:     res.Committed,
		Messages:      res.NetMessages,
		FlitHops:      res.NetFlitHops,
		BlockedWrites: res.BlockedWrites,
		Squashed:      res.Squashed,
	}
}

// simJob is one simulation: a registered workload on the 16-core
// SLM-class machine at scale 1, the tsosim defaults.
type simJob struct {
	Workload string
	Variant  core.Variant
}

func (j simJob) key() string { return j.Workload + "/" + string(j.Variant) }

const (
	simCores = 16
	simScale = 1
)

// simPrivate runs two workloads that send little network traffic, so
// the core pipeline dominates host time.
var simPrivate = []simJob{
	{"swaptions", core.OoOWB},
	{"streamcluster", core.OoOWB},
}

// simShared runs two communication-heavy workloads under the three
// registered out-of-order protocols: invalidate+squash, WritersBlock
// lockdown, and Tardis leases.
var simShared = []simJob{
	{"radix", core.OoOBase}, {"fft", core.OoOBase},
	{"radix", core.OoOWB}, {"fft", core.OoOWB},
	{"radix", core.Variant("ooo-tardis")}, {"fft", core.Variant("ooo-tardis")},
}

// simConfig is the machine tsosim builds for -class SLM -cores 16.
func simConfig(v core.Variant, seed uint64) core.Config {
	cfg := core.DefaultConfig(core.SLM, v)
	cfg.Cores = simCores
	cfg.Seed = seed
	cfg.Shards = 1
	return cfg
}

// setupTimes are the host times of building one system.
type setupTimes struct {
	build, newSystem time.Duration
}

// buildSystem is the set-up half of workload.Run: programs, machine,
// memory image. Panics are contained as in workload.Run.
func buildSystem(w workload.Workload, cfg core.Config, scale int) (sys *core.System, st setupTimes, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = faults.PanicError(r, nil)
		}
	}()
	t0 := time.Now()
	progs := w.Build(cfg.Cores, scale)
	t1 := time.Now()
	sys = core.NewSystem(cfg, progs)
	t2 := time.Now()
	if w.Init != nil {
		w.Init(sys.Memory, cfg.Cores, scale)
	}
	st.build = t1.Sub(t0) + time.Since(t2)
	st.newSystem = t2.Sub(t1)
	return sys, st, nil
}

// simRunner runs the jobs one after another on one goroutine, as tsosim
// does at -parallel 1.
func simRunner(jobs []simJob) func(options, *expected, *report) {
	return func(opt options, exp *expected, r *report) {
		var layers loopLayers
		var setup setupTimes
		var committed uint64
		heap := readHeap()
		for i, j := range jobs {
			t0 := time.Now()
			if !opt.setupOnly {
				r.Jobs++
			}
			w, ok := workload.Get(j.Workload)
			if !ok {
				r.fail(1, "%s: unknown workload", j.key())
				continue
			}
			cfg := simConfig(j.Variant, opt.seed)
			sys, st, err := buildSystem(w, cfg, simScale)
			if i == 0 {
				r.SetupS = time.Since(opt.spawned).Seconds()
			} else {
				r.SetupS += time.Since(t0).Seconds()
			}
			setup.build += st.build
			setup.newSystem += st.newSystem
			if opt.setupOnly {
				continue
			}
			if err != nil {
				r.fail(1, "%s: %v", j.key(), err)
				continue
			}
			if opt.trace {
				_, err = tracedRun(sys, &layers)
			} else {
				_, err = sys.Run()
			}
			res := sys.Collect()
			if err != nil {
				r.fail(1, "%s: %v", j.key(), err)
				continue
			}
			got, want := outcomeOf(res), exp.Sim[j.key()]
			if got != want {
				r.fail(1, "%s: outputs %+v, recorded %+v", j.key(), got, want)
				continue
			}
			r.Work += float64(res.Cycles)
			committed += res.Committed
			layers.addResults(res)
		}
		if opt.trace {
			layers.report(r.Layers, committed)
			setup.report(r.Layers)
			heap.since().report(r.Layers, committed)
		}
	}
}

// simRecorder records the jobs' outputs at seed 1.
func simRecorder(jobs []simJob) func(*expected) error {
	return func(exp *expected) error {
		for _, j := range jobs {
			w, ok := workload.Get(j.Workload)
			if !ok {
				return fmt.Errorf("%s: unknown workload", j.key())
			}
			_, res, err := workload.Run(w, simConfig(j.Variant, 1), simScale)
			if err != nil {
				return fmt.Errorf("%s: %w", j.key(), err)
			}
			exp.Sim[j.key()] = outcomeOf(res)
		}
		return nil
	}
}

func (st setupTimes) report(m map[string]float64) {
	m["workload.build_s"] = st.build.Seconds()
	m["core.newsystem_s"] = st.newSystem.Seconds()
}
