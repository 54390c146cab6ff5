package main

import (
	"fmt"
	"time"

	"wbsim/internal/coherence"
	"wbsim/internal/coherence/check"
)

// checkWorkers is the explorations' frontier worker count, fixed so the
// workload is the same on every host.
const checkWorkers = 2

// exploration is one model-checker run of the modelcheck workload.
type exploration struct {
	name string
	cfg  check.Config
}

// explorations are an exhaustive two-core lockdown closure, liveness
// pass included, and a capped three-core squash run under symmetry and
// partial-order reduction.
var explorations = []exploration{
	{"lockdown-2c1b1l", check.Config{
		Model:   coherence.ModelConfig{Cores: 2, Banks: 1, Lines: 1, OpsPerCore: 2, Lockdowns: 1, Mode: coherence.ModeLockdown},
		Workers: checkWorkers,
	}},
	{"squash-3c2b2l", check.Config{
		Model:     coherence.ModelConfig{Cores: 3, Banks: 2, Lines: 2, OpsPerCore: 2, Mode: coherence.ModeSquash},
		Workers:   checkWorkers,
		MaxStates: 100_000,
		Symmetry:  true,
		POR:       true,
	}},
}

// checkOutcome is the checked part of one check.Result.
type checkOutcome struct {
	States      int  `json:"states"`
	Transitions int  `json:"transitions"`
	Terminals   int  `json:"terminals"`
	MaxDepth    int  `json:"max_depth"`
	Passed      bool `json:"passed"`
}

func checkOutcomeOf(res *check.Result) checkOutcome {
	return checkOutcome{
		States:      res.States,
		Transitions: res.Transitions,
		Terminals:   res.Terminals,
		MaxDepth:    res.MaxDepth,
		Passed:      res.Passed(),
	}
}

// checkLayers accumulates the checker's per-layer times and counts.
type checkLayers struct {
	expand, liveness time.Duration
	allocBytes       uint64
	out              checkOutcome // summed over explorations
}

// runCheck runs the explorations one after another, as two wbsimcheck
// invocations would.
func runCheck(opt options, exp *expected, r *report) {
	r.SetupS = time.Since(opt.spawned).Seconds()
	if opt.setupOnly {
		return
	}
	var layers checkLayers
	heap := readHeap()
	for _, e := range explorations {
		r.Jobs++
		var res *check.Result
		if opt.trace {
			res = tracedExplore(e.cfg, &layers)
		} else {
			res = check.Explore(e.cfg)
		}
		got, want := checkOutcomeOf(res), exp.Check[e.name]
		if got != want {
			r.fail(1, "%s: outputs %+v, recorded %+v", e.name, got, want)
			continue
		}
		r.Work += float64(res.States)
	}
	if opt.trace {
		layers.report(r.Layers)
		heap.since().report(r.Layers, 0)
		walk := timeModelWalk()
		walk.report(r.Layers)
	}
}

// tracedExplore runs check.Explore and splits its time at the last
// per-layer Progress callback: BFS expansion before it, the final fill
// and the backward liveness pass after it.
func tracedExplore(cfg check.Config, l *checkLayers) *check.Result {
	var last time.Time
	cfg.Progress = func(check.ProgressInfo) { last = time.Now() }
	heap := readHeap()
	start := time.Now()
	res := check.Explore(cfg)
	end := time.Now()
	if last.IsZero() {
		last = start
	}
	l.expand += last.Sub(start)
	l.liveness += end.Sub(last)
	l.allocBytes += heap.since().allocBytes
	o := checkOutcomeOf(res)
	l.out.States += o.States
	l.out.Transitions += o.Transitions
	l.out.Terminals += o.Terminals
	l.out.MaxDepth = max(l.out.MaxDepth, o.MaxDepth)
	return res
}

func (l *checkLayers) report(m map[string]float64) {
	m["check.expand_s"] = l.expand.Seconds()
	m["check.liveness_s"] = l.liveness.Seconds()
	m["check.bytes_per_state"] = ratio(float64(l.allocBytes), float64(l.out.States))
	m["check.states"] = float64(l.out.States)
	m["check.transitions"] = float64(l.out.Transitions)
	m["check.terminals"] = float64(l.out.Terminals)
	m["check.max_depth"] = float64(l.out.MaxDepth)
}

// modelWalk holds the mean host cost of the Model calls the checker's
// expansion makes per transition.
type modelWalk struct {
	clone, apply, canonFP time.Duration
	steps                 int
}

// walkSteps is the length of the fixed walk.
const walkSteps = 20_000

// timeModelWalk times Clone, Apply and CanonicalFingerprint on a fixed
// walk through the three-core squash model: step i takes choice
// i mod (number of choices), restarting from the initial state at a
// terminal state.
func timeModelWalk() modelWalk {
	cfg := explorations[1].cfg.Model
	var w modelWalk
	m := coherence.NewModel(cfg)
	for i := 0; i < walkSteps; i++ {
		chs := m.Choices()
		if len(chs) == 0 {
			m = coherence.NewModel(cfg)
			continue
		}
		t0 := time.Now()
		c := m.Clone()
		t1 := time.Now()
		c.Apply(chs[i%len(chs)])
		t2 := time.Now()
		c.CanonicalFingerprint()
		t3 := time.Now()
		w.clone += t1.Sub(t0)
		w.apply += t2.Sub(t1)
		w.canonFP += t3.Sub(t2)
		w.steps++
		m = c
	}
	return w
}

func (w modelWalk) report(m map[string]float64) {
	n := float64(w.steps)
	m["model.clone_ns"] = ratio(float64(w.clone.Nanoseconds()), n)
	m["model.apply_ns"] = ratio(float64(w.apply.Nanoseconds()), n)
	m["model.canon_fp_ns"] = ratio(float64(w.canonFP.Nanoseconds()), n)
}

// recordCheck records the explorations' outcomes.
func recordCheck(exp *expected) error {
	for _, e := range explorations {
		res := check.Explore(e.cfg)
		if !res.Passed() {
			return fmt.Errorf("%s did not pass", e.name)
		}
		exp.Check[e.name] = checkOutcomeOf(res)
	}
	return nil
}
