package workload

import (
	"reflect"
	"testing"

	"wbsim/internal/coherence"
	"wbsim/internal/core"
	"wbsim/internal/cpu"
)

// TestSharedJobsMatchCycleAccurate is the equivalence gate for the
// event-driven kernel on the communication-heavy jobs, where cores sleep
// most: radix and fft under the three out-of-order protocols on the
// 16-core SLM machine at scale 1. The default kernel (idle fast-forward,
// per-core sleep, event-driven commit) must produce the run that
// cycle-accurate stepping produces, down to every core's and every PCU's
// counters; the cycle-accurate run also checks each tick a core would
// have slept through and each commit scan that would have been skipped.
func TestSharedJobsMatchCycleAccurate(t *testing.T) {
	type perCore struct {
		core cpu.Stats
		pcu  coherence.PCUStats
	}
	run := func(t *testing.T, w Workload, v core.Variant, accurate bool) (core.Results, []perCore) {
		cfg := core.DefaultConfig(core.SLM, v)
		cfg.Cores = 16
		cfg.CycleAccurate = accurate
		sys, res, err := Run(w, cfg, 1)
		if err != nil {
			t.Fatalf("accurate=%v: %v", accurate, err)
		}
		var pc []perCore
		for i, c := range sys.Cores {
			pc = append(pc, perCore{c.Stats, sys.PCUs[i].Stats})
		}
		return res, pc
	}
	for _, name := range []string{"radix", "fft"} {
		w, ok := Get(name)
		if !ok {
			t.Fatalf("missing workload %q", name)
		}
		for _, v := range []core.Variant{core.OoOBase, core.OoOWB, core.Variant("ooo-tardis")} {
			t.Run(name+"/"+string(v), func(t *testing.T) {
				t.Parallel()
				accRes, accCores := run(t, w, v, true)
				res, cores := run(t, w, v, false)
				if !reflect.DeepEqual(res.Coverage, accRes.Coverage) {
					t.Errorf("transition coverage diverges")
				}
				res.Coverage, accRes.Coverage = nil, nil
				if res != accRes {
					t.Errorf("results diverge:\ndefault:        %+v\ncycle-accurate: %+v", res, accRes)
				}
				for i := range cores {
					if cores[i] != accCores[i] {
						t.Errorf("core %d diverges:\ndefault:        %+v\ncycle-accurate: %+v", i, cores[i], accCores[i])
					}
				}
			})
		}
	}
}
