package main

import (
	"context"
	"fmt"
	"syscall"
	"time"

	"wbsim/internal/core"
	"wbsim/internal/experiments"
	"wbsim/internal/runner"
	"wbsim/internal/stats"
	"wbsim/internal/workload"
)

// fig9Parallel is the sweep's worker count, fixed so the workload is the
// same on every host.
const fig9Parallel = 2

// fig9Outcome is the recorded Figure 9 table and the simulated cycles
// its 40 jobs sum to.
type fig9Outcome struct {
	Table  string `json:"table"`
	Cycles uint64 `json:"cycles"`
}

func fig9Options(seed uint64) experiments.Options {
	return experiments.Options{Cores: simCores, Scale: simScale, Seed: seed}
}

// runFig9 regenerates Figure 9 the way `experiments -cores 16 -scale 1
// -parallel 2 fig9` does; the traced run goes through tracedSweep.
func runFig9(opt options, exp *expected, r *report) {
	if opt.trace {
		runTracedFig9(opt, exp, r)
		return
	}
	eng := experiments.NewEngine(fig9Parallel)
	r.SetupS = time.Since(opt.spawned).Seconds()
	if opt.setupOnly {
		return
	}
	jobs := len(fig9Jobs(opt.seed))
	r.Jobs += jobs
	t, err := eng.Fig9(fig9Options(opt.seed))
	switch {
	case err != nil:
		r.fail(len(eng.Failures()), "fig9: %v", err)
	case t.String() != exp.Fig9.Table:
		r.fail(jobs, "fig9: table differs from the recorded one:\n%s", t)
	default:
		r.Work = float64(exp.Fig9.Cycles)
	}
}

func runTracedFig9(opt options, exp *expected, r *report) {
	r.SetupS = time.Since(opt.spawned).Seconds()
	if opt.setupOnly {
		return
	}
	heap := readHeap()
	sw := tracedSweep(opt.seed)
	r.Jobs += sw.jobs
	switch {
	case sw.err != nil:
		r.fail(sw.failed, "fig9: %v", sw.err)
	case sw.table.String() != exp.Fig9.Table:
		r.fail(sw.jobs, "fig9: traced table differs from the recorded one:\n%s", sw.table)
	default:
		r.Work = float64(sw.cycles)
	}
	sw.layers.report(r.Layers, sw.committed)
	sw.setup.report(r.Layers)
	heap.since().report(r.Layers, sw.committed)
	sw.report(r.Layers)
}

// fig9Job is one simulation of the Figure 9 sweep.
type fig9Job struct {
	w   workload.Workload
	cfg core.Config
}

// fig9Jobs is Engine.Fig9's job list: every evaluation workload under
// in-order commit over the base protocol, then over WritersBlock.
func fig9Jobs(seed uint64) []fig9Job {
	var jobs []fig9Job
	for _, w := range workload.Evaluation() {
		for _, v := range []core.Variant{core.InOrderBase, core.InOrderWB} {
			cfg := core.DefaultConfig(core.SLM, v)
			cfg.Cores = simCores
			cfg.Seed = seed
			jobs = append(jobs, fig9Job{w: w, cfg: cfg})
		}
	}
	return jobs
}

// sweep is one traced Figure 9 sweep.
type sweep struct {
	table          *stats.Table
	err            error
	jobs, failed   int
	cycles         uint64
	committed      uint64
	layers         loopLayers
	setup          setupTimes
	jobSum, jobMax time.Duration
	wall           time.Duration
	cpu            time.Duration
	cacheHits      uint64
}

// tracedSweep runs the Figure 9 jobs on runner.ForEach at the engine's
// parallelism with a runner.Memo in front, each job through buildSystem
// and tracedRun, and assembles the table as Engine.Fig9 does.
func tracedSweep(seed uint64) *sweep {
	jobs := fig9Jobs(seed)
	type slot struct {
		res    core.Results
		err    error
		dur    time.Duration
		layers loopLayers
		setup  setupTimes
	}
	slots := make([]slot, len(jobs))
	memo := runner.NewMemo[core.Results]()
	cpu0 := processCPU()
	start := time.Now()
	_ = runner.ForEach(context.Background(), fig9Parallel, len(jobs), func(_ context.Context, i int) error {
		j, sl := jobs[i], &slots[i]
		t0 := time.Now()
		key := fmt.Sprintf("%s|%+v", j.w.Name, j.cfg)
		sl.res, sl.err = memo.Do(key, func() (core.Results, error) {
			sys, st, err := buildSystem(j.w, j.cfg, simScale)
			sl.setup = st
			if err != nil {
				return core.Results{}, err
			}
			_, err = tracedRun(sys, &sl.layers)
			return sys.Collect(), err
		})
		sl.dur = time.Since(t0)
		return nil
	})
	sw := &sweep{jobs: len(jobs), wall: time.Since(start), cpu: processCPU() - cpu0}
	_, sw.cacheHits = memo.Stats()

	results := make([]core.Results, len(jobs))
	for i, sl := range slots {
		sw.jobSum += sl.dur
		sw.jobMax = max(sw.jobMax, sl.dur)
		sw.setup.build += sl.setup.build
		sw.setup.newSystem += sl.setup.newSystem
		sw.layers.add(sl.layers)
		if sl.err != nil {
			sw.failed++
			if sw.err == nil {
				sw.err = fmt.Errorf("fig9 %s %s: %w", jobs[i].w.Name, jobs[i].cfg.Variant, sl.err)
			}
			continue
		}
		sw.layers.addResults(sl.res)
		sw.cycles += uint64(sl.res.Cycles)
		sw.committed += sl.res.Committed
		results[i] = sl.res
	}
	if sw.err != nil {
		return sw
	}

	t := stats.NewTable("Figure 9: WritersBlock protocol overhead (normalized to base, in-order commit)",
		"benchmark", "exec-time", "traffic(flit-hops)")
	var times, traffic []float64
	for i, w := range workload.Evaluation() {
		base, wb := results[2*i], results[2*i+1]
		tn := stats.Ratio(float64(wb.Cycles), float64(base.Cycles))
		fn := stats.Ratio(float64(wb.NetFlitHops), float64(base.NetFlitHops))
		times = append(times, tn)
		traffic = append(traffic, fn)
		t.AddRow(w.Name, tn, fn)
	}
	t.AddRow("geomean", stats.GeoMean(times), stats.GeoMean(traffic))
	sw.table = t
	return sw
}

// report writes the runner metrics of the sweep.
func (sw *sweep) report(m map[string]float64) {
	pool := float64(fig9Parallel) * sw.wall.Seconds()
	m["runner.job_s_sum"] = sw.jobSum.Seconds()
	m["runner.job_s_max"] = sw.jobMax.Seconds()
	m["runner.idle_s"] = pool - sw.jobSum.Seconds()
	m["runner.cpu_util"] = ratio(sw.cpu.Seconds(), pool)
	m["runner.cache_hits"] = float64(sw.cacheHits)
}

// processCPU is the user+system CPU time this process has used.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// recordFig9 records the table and cycle total at seed 1.
func recordFig9(exp *expected) error {
	sw := tracedSweep(1)
	if sw.err != nil {
		return sw.err
	}
	t, err := experiments.NewEngine(fig9Parallel).Fig9(fig9Options(1))
	if err != nil {
		return err
	}
	if t.String() != sw.table.String() {
		return fmt.Errorf("traced sweep table differs from Engine.Fig9's")
	}
	exp.Fig9 = fig9Outcome{Table: t.String(), Cycles: sw.cycles}
	return nil
}
