package core

import (
	"fmt"
	"reflect"
	"testing"

	"wbsim/internal/coherence"
	"wbsim/internal/cpu"
	"wbsim/internal/faults"
	"wbsim/internal/isa"
	"wbsim/internal/sim"
)

// TestIdleSkipMatchesCycleAccurate is the determinism gate for the
// event-driven kernel: running with the idle-skip fast-forward, the
// per-core sleep and the event-driven commit skip (the default) must
// produce *exactly* the run that cycle-accurate stepping produces — same
// final cycle, same Results down to every stall and squash counter, same
// architectural registers — across every variant, fault plan, and random
// programs. The skips may only elide work they can prove is a replay;
// any divergence here means one elided work it couldn't. The
// cycle-accurate run also checks every commit scan the skip would have
// elided, so a missed commit input fails it at the first cycle it
// matters (cpu.CommitSkipError), and every tick a core would have slept
// through, so a missed wake-up fails it the same way (cpu.SleepError).
// Per-core counters are compared too.
func TestIdleSkipMatchesCycleAccurate(t *testing.T) {
	plans := []*faults.Plan{nil}
	for _, p := range faults.Catalog() {
		p := p
		plans = append(plans, &p)
	}
	seeds := []uint64{1, 2}
	if testing.Short() {
		plans = plans[:2]
		seeds = seeds[:1]
	}

	for _, v := range AllVariants() {
		for _, plan := range plans {
			for _, seed := range seeds {
				name := "none"
				if plan != nil {
					name = plan.Name
				}
				// skinny-cache shrinks the cache below what four random
				// working sets can share (the machine legitimately runs out
				// of eviction victims), so that plan keeps the historical
				// two-core workload.
				cores := 4
				if name == "skinny-cache" {
					cores = 2
				}
				t.Run(fmt.Sprintf("%v/%s/seed%d", v, name, seed), func(t *testing.T) {
					run := func(accurate bool) (sim.Cycle, Results, [16]uint64, []perCore) {
						rng := sim.NewRand(9000 + seed)
						progs := make([]*isa.Program, cores)
						for i := range progs {
							progs[i] = randomProgram(rng, i)
						}
						cfg := SmallConfig(cores, v)
						cfg.Seed = seed
						cfg.Faults = plan
						cfg.CycleAccurate = accurate
						sys := NewSystem(cfg, progs)
						cycles, err := sys.Run()
						if err != nil {
							t.Fatalf("accurate=%v: %v", accurate, err)
						}
						var regs [16]uint64
						for r := 1; r < 16; r++ {
							for i := range sys.Cores {
								regs[r] ^= uint64(sys.Cores[i].Reg(isa.Reg(r))) << i
							}
						}
						return cycles, sys.Collect(), regs, perCoreStats(sys)
					}
					accCycles, accRes, accRegs, accCores := run(true)
					cycles, res, regs, cores := run(false)
					if cycles != accCycles {
						t.Errorf("idle-skip cycles: %d, cycle-accurate %d", cycles, accCycles)
					}
					// Transition fire counts must match exactly too; compare
					// them first, then the scalar counters by value.
					if !reflect.DeepEqual(res.Coverage, accRes.Coverage) {
						t.Errorf("transition coverage diverges:\nidle-skip:      %v\ncycle-accurate: %v",
							res.Coverage, accRes.Coverage)
					}
					want := accRes
					res.Coverage, want.Coverage = nil, nil
					if res != want {
						t.Errorf("results diverge:\nidle-skip:      %+v\ncycle-accurate: %+v", res, want)
					}
					if regs != accRegs {
						t.Error("architectural registers diverge")
					}
					for i := range cores {
						if cores[i] != accCores[i] {
							t.Errorf("core %d diverges:\nidle-skip:      %+v\ncycle-accurate: %+v", i, cores[i], accCores[i])
						}
					}
				})
			}
		}
	}
}

// perCore is one core's counters and its PCU's.
type perCore struct {
	Core cpu.Stats
	PCU  coherence.PCUStats
}

// perCoreStats collects every core's and PCU's counters: the summed
// Results can hide a credit charged to the wrong core.
func perCoreStats(sys *System) []perCore {
	var pc []perCore
	for i, c := range sys.Cores {
		pc = append(pc, perCore{c.Stats, sys.PCUs[i].Stats})
	}
	return pc
}

// TestFastForwardObservesWatchdog checks that skipping idle cycles does
// not skip past watchdog checkpoints: a run that hangs under a fault plan
// must trip the watchdog at the same cycle with and without idle-skip.
// (Hang detection is the one consumer of "wasted" idle ticks, so it is
// the easiest thing for a fast-forward to break.)
func TestFastForwardObservesWatchdog(t *testing.T) {
	// An intentionally unfinishable program: spin on a flag no one sets.
	b := isa.NewBuilder("spin")
	b.MovImm(1, 0x3000)
	loop := b.Here()
	b.Load(2, 1, 0)
	b.BranchI(isa.FnEQ, 2, 0, loop)
	b.Halt()

	run := func(accurate bool) (sim.Cycle, string) {
		cfg := SmallConfig(2, OoOWB)
		cfg.MaxCycles = 60000
		cfg.CycleAccurate = accurate
		sys := NewSystem(cfg, []*isa.Program{b.Program(), b.Program()})
		cycles, err := sys.Run()
		if err == nil {
			t.Fatalf("accurate=%v: spin loop finished?", accurate)
		}
		return cycles, err.Error()
	}
	accCycles, accErr := run(true)
	if cycles, errStr := run(false); cycles != accCycles || errStr != accErr {
		t.Errorf("hang detection diverges:\nidle-skip:      cycle %d, %s\ncycle-accurate: cycle %d, %s",
			cycles, errStr, accCycles, accErr)
	}
}

// TestCommitSkipWakesOnStoreAddress pins the one commit input the random
// programs above rarely isolate: a store whose address resolves while its
// data is still pending. Nothing completes or performs at that moment,
// yet the younger instructions become committable (condition 4 clears),
// so the address resolution itself must wake the commit scan. The
// cycle-accurate run checks every elided scan and fails on a missed wake.
func TestCommitSkipWakesOnStoreAddress(t *testing.T) {
	b := isa.NewBuilder("store-addr")
	b.MovImm(1, 0x10000)
	b.Work(5, 1, 1, 40) // store data: long latency
	b.Work(2, 1, 1, 3)  // store address
	b.Work(8, 2, 2, 10) // competes with the store for issue
	b.Store(2, 0, 5)
	b.MovImm(6, 1) // can commit once the store's address is known
	b.MovImm(7, 2)
	b.Halt()
	for _, v := range AllVariants() {
		run := func(accurate bool) Results {
			cfg := SmallConfig(1, v)
			cfg.CycleAccurate = accurate
			sys := NewSystem(cfg, []*isa.Program{b.Program()})
			if _, err := sys.Run(); err != nil {
				t.Fatalf("%v accurate=%v: %v", v, accurate, err)
			}
			res := sys.Collect()
			res.Coverage = nil
			return res
		}
		if res, acc := run(false), run(true); res != acc {
			t.Errorf("%v: results diverge:\nevent-driven:   %+v\ncycle-accurate: %+v", v, res, acc)
		}
	}
}
