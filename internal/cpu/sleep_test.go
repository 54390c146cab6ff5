package cpu_test

import (
	"strings"
	"testing"

	"wbsim/internal/core"
	"wbsim/internal/faults"
	"wbsim/internal/isa"
)

// TestSleepCheckedUnderCycleAccurate: with cycle-accurate stepping, a
// tick the core would have slept through still executes and is checked
// against the credit. A credit that no longer matches — here skewed by
// hand once a cold miss has put the core to sleep — panics with a
// *cpu.SleepError, which System.Run contains as a SimError. Without the
// check the skew would go unseen: the default kernel credits it.
func TestSleepCheckedUnderCycleAccurate(t *testing.T) {
	b := isa.NewBuilder("cold-miss")
	b.MovImm(1, 0x4000)
	b.Load(2, 1, 0) // a cold miss at the head of an in-order ROB
	b.ALUI(isa.FnAdd, 3, 2, 1)
	b.Halt()
	run := func(accurate bool) error {
		cfg := core.SmallConfig(1, core.InOrderBase)
		cfg.CycleAccurate = accurate
		sys := core.NewSystem(cfg, []*isa.Program{b.Program()})
		c := sys.Cores[0]
		for i := 0; i < 50 && !c.IdleStable(); i++ {
			sys.Step()
		}
		if !c.IdleStable() {
			t.Fatalf("accurate=%v: the core never went idle behind its miss", accurate)
		}
		c.SkewIdleCredit()
		_, err := sys.Run()
		return err
	}
	if err := run(false); err != nil {
		t.Fatalf("default kernel: %v", err)
	}
	err := run(true)
	se, ok := faults.AsSimError(err)
	if !ok || se.Kind != faults.KindPanic {
		t.Fatalf("want a panic SimError, got %v", err)
	}
	if !strings.Contains(se.Msg, "cpu 0: sleep diverges at cycle") {
		t.Errorf("message lost the SleepError: %q", se.Msg)
	}
}
