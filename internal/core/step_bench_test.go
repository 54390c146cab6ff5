package core

import (
	"fmt"
	"testing"

	"wbsim/internal/isa"
	"wbsim/internal/mem"
)

// stepBenchProgram builds a loop mixing shared-line loads, stores, and
// ALU work, with an iteration count far beyond any realistic b.N so the
// machine never drains mid-measurement.
func stepBenchProgram(id int) *isa.Program {
	b := isa.NewBuilder(fmt.Sprintf("stepbench.%d", id))
	b.MovImm(15, mem.Word(1)<<40)
	outer := b.Here()
	for i := 0; i < 8; i++ {
		b.MovImm(5, mem.Word(0x10000+((id+i)%8)*mem.LineBytes))
		b.Load(1, 5, 0)
		b.ALU(isa.FnAdd, 2, 2, 1)
		b.Store(5, 0, 2)
	}
	b.ALUI(isa.FnSub, 15, 15, 1)
	b.BranchI(isa.FnNE, 15, 0, outer)
	b.Halt()
	return b.Program()
}

// BenchmarkSystemStep measures one cycle-accurate step of a busy 4-core
// system — the simulator's innermost loop, with every component active
// and sharing lines. One iteration is one simulated cycle.
func BenchmarkSystemStep(b *testing.B) {
	progs := make([]*isa.Program, 4)
	for i := range progs {
		progs[i] = stepBenchProgram(i)
	}
	sys := NewSystem(SmallConfig(4, OoOWB), progs)
	for i := 0; i < 20000; i++ { // past cold caches and slab growth
		sys.Step()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sys.Step()
	}
	b.StopTimer()
	if sys.Done() {
		b.Fatal("benchmark program terminated; its loop is too short")
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "sim-cycles/sec")
}

// TestSystemStepZeroAllocWhileBusy pins the instruction window's
// allocation invariant: a warmed-up core running a private
// load/ALU/store loop dispatches into fixed ROB/LQ/SQ slots and commits
// half its instructions from mid-ROB, which never drains the ROB, so
// stepping it must not allocate. Steps are batched because AllocsPerRun
// truncates to whole allocations per run.
func TestSystemStepZeroAllocWhileBusy(t *testing.T) {
	sys := NewSystem(SmallConfig(1, OoOWB), []*isa.Program{stepBenchProgram(0)})
	for i := 0; i < 20000; i++ {
		sys.Step()
	}
	committed := sys.Cores[0].Stats.Committed
	allocs := testing.AllocsPerRun(50, func() {
		for i := 0; i < 1000; i++ {
			sys.Step()
		}
	})
	if allocs != 0 {
		t.Fatalf("busy System.Step allocates %.0f objects per 1000 cycles, want 0", allocs)
	}
	if sys.Done() || sys.Cores[0].Stats.Committed == committed {
		t.Fatal("the core stopped committing; the loop no longer exercises the window")
	}
}

// TestSystemStepZeroAllocWhenDrained pins the steady-state allocation
// invariant of the scheduler: stepping a system whose cores have all
// halted and drained must not allocate. This is the state the idle-skip
// fast-forward replays arithmetically, so any allocation here is both a
// perf bug and a hint that a "drained" tick still does real work.
func TestSystemStepZeroAllocWhenDrained(t *testing.T) {
	b := isa.NewBuilder("drain")
	b.MovImm(1, 0x2000)
	b.MovImm(2, 7)
	b.Store(1, 0, 2)
	b.Load(3, 1, 0)
	b.Halt()
	sys := NewSystem(SmallConfig(2, OoOWB), []*isa.Program{b.Program(), haltProgram()})
	if _, err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(512, sys.Step); allocs != 0 {
		t.Fatalf("drained System.Step allocates %.1f objects/cycle, want 0", allocs)
	}
}
