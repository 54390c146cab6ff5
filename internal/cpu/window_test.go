package cpu_test

import (
	"strings"
	"testing"

	"wbsim/internal/core"
	"wbsim/internal/faults"
	"wbsim/internal/isa"
)

// TestWindowUnderflowIsContained: a broken window invariant — here one
// more instruction in flight than the DynInstr window has free slots —
// panics with a *cpu.WindowError, and System.Run contains it as a
// SimError of KindPanic with a hang report, like any other internal
// panic.
func TestWindowUnderflowIsContained(t *testing.T) {
	b := isa.NewBuilder("fill-rob")
	b.MovImm(1, 0x4000)
	b.Load(2, 1, 0) // a cold miss at the head of an in-order ROB: dispatch fills it
	for i := 0; i < 256; i++ {
		b.ALUI(isa.FnAdd, 3, 3, 1)
	}
	b.Halt()
	run := func(leak bool) error {
		sys := core.NewSystem(core.SmallConfig(1, core.InOrderBase), []*isa.Program{b.Program()})
		if leak {
			sys.Cores[0].LeakROBSlot()
		}
		_, err := sys.Run()
		return err
	}
	if err := run(false); err != nil {
		t.Fatalf("without the leak: %v", err)
	}
	err := run(true)
	se, ok := faults.AsSimError(err)
	if !ok || se.Kind != faults.KindPanic {
		t.Fatalf("want a panic SimError, got %v", err)
	}
	if !strings.Contains(se.Msg, "cpu 0: rob window underflow at cycle") {
		t.Errorf("message lost the WindowError: %q", se.Msg)
	}
	if se.Report == nil || se.Report.Reason != "panic" {
		t.Errorf("panic report: %+v", se.Report)
	}
}
