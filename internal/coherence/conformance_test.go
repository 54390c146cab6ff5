package coherence

import (
	"strings"
	"testing"

	"wbsim/internal/mem"
	"wbsim/internal/network"
)

// TestExerciseConformance runs the directed stimulator suite with every
// Bank and PCU instrumented by the effects-conformance recorder: any
// divergence between a row's declared Effects and what its action did
// (state outside Next, undeclared send, missing unconditional send,
// undeclared redispatch) fails with the row named. This is what keeps
// the speclint annotations honest — drift between dir_table.go/
// pcu_table.go metadata and the runtime is a test failure, not a
// silently wrong static report.
func TestExerciseConformance(t *testing.T) {
	for _, v := range ExerciseProtocol().ConformanceViolations() {
		t.Errorf("%s", v)
	}
}

// TestConformanceDetectsDrift drives the recorder by hand and checks
// each divergence class is caught with the row named.
func TestConformanceDetectsDrift(t *testing.T) {
	bank := network.Endpoint(9)
	newRec := func() (*ConfChecker, *confMachine) {
		ck := NewConfChecker(func(ep network.Endpoint) bool { return ep == bank })
		return ck, ck.newConfMachine(ProtoBase.dir, bankConfAllowance())
	}
	expect := func(t *testing.T, ck *ConfChecker, frag string) {
		t.Helper()
		if len(ck.Violations()) != 1 || !strings.Contains(ck.Violations()[0], frag) {
			t.Fatalf("want one violation containing %q, got %q", frag, ck.Violations())
		}
	}

	t.Run("next-outside-declared-set", func(t *testing.T) {
		// The alloc row declares Next {NoEntry, Fetch}; pretend the
		// action left the line BusyW.
		ck, c := newRec()
		c.enter(int(dirStNoEntry), int(dirEvRead), mem.Line(1))
		c.exit(func() int { return int(dirStBusyWrite) })
		expect(t, ck, "outside the declared Next set")
	})

	t.Run("undeclared-send", func(t *testing.T) {
		// The alloc row declares no DataExcl send.
		ck, c := newRec()
		c.enter(int(dirStNoEntry), int(dirEvRead), mem.Line(1))
		c.send(network.Endpoint(0), &Msg{Type: MsgDataExcl, Line: mem.Line(1)})
		c.exit(func() int { return int(dirStFetching) })
		expect(t, ck, "undeclared send")
	})

	t.Run("missing-unconditional-send", func(t *testing.T) {
		// The E/Read forward row declares an unconditional FwdGetS;
		// close the frame without it having fired.
		ck, c := newRec()
		c.enter(int(dirStExclusive), int(dirEvRead), mem.Line(1))
		c.exit(func() int { return int(dirStBusyShared) })
		expect(t, ck, "did not happen")
	})

	t.Run("undeclared-redispatch", func(t *testing.T) {
		// The alloc row does not declare ThenRedispatch; a nested
		// same-line dispatch must be flagged.
		ck, c := newRec()
		c.enter(int(dirStNoEntry), int(dirEvRead), mem.Line(1))
		c.enter(int(dirStFetching), int(dirEvRead), mem.Line(1))
		c.exit(func() int { return int(dirStFetching) })
		c.exit(func() int { return int(dirStFetching) })
		expect(t, ck, "without declaring ThenRedispatch")
	})

	t.Run("out-of-row-send-not-covered", func(t *testing.T) {
		// With no open frame only the declared spontaneous traffic
		// (eviction Invs) is legal; a bare Data send is not.
		ck, c := newRec()
		c.send(network.Endpoint(0), &Msg{Type: MsgData, Line: mem.Line(1)})
		expect(t, ck, "matches no spontaneous or stimulus declaration")
	})
}
