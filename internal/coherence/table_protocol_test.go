package coherence

import (
	"strings"
	"testing"

	"wbsim/internal/coherence/table"
	"wbsim/internal/mem"
)

// TestDirTableCompleteness pins the audited shape of every registered
// protocol's directory machine: each builds (init-time completeness),
// and the non-Impossible row counts match the audit in the protocol
// tables — base MESI, the WritersBlock, non-silent-eviction and tardis
// deltas each add exactly the rows they claim to.
func TestDirTableCompleteness(t *testing.T) {
	want := map[string]struct {
		name     string
		possible int
	}{
		"base":    {"dir", 32},
		"base-ns": {"dir+ns", 41},
		"wb":      {"dir+wb", 48},
		"wb-ns":   {"dir+wb+ns+wbns", 59},
		"tardis":  {"dir+tardis", 39},
	}
	for _, p := range Protocols() {
		w, ok := want[p.Name]
		if !ok {
			t.Errorf("%s: registered protocol has no pinned directory shape", p.Name)
			continue
		}
		m := p.dir
		if m.Name() != w.name {
			t.Errorf("%s: directory machine %q, want %q", p.Name, m.Name(), w.name)
		}
		if m.Possible() != w.possible {
			t.Errorf("%s: %d non-impossible rows, want %d", m.Name(), m.Possible(), w.possible)
		}
		if m.Size() != int(numDirStates)*int(numDirEvents) {
			t.Errorf("%s: size %d, want %d", m.Name(), m.Size(), int(numDirStates)*int(numDirEvents))
		}
	}
}

// TestDirTableRejectsDeletedRow is the acceptance check for the
// completeness validator at the protocol level: deleting one row from
// the real directory spec must fail construction naming the pair.
func TestDirTableRejectsDeletedRow(t *testing.T) {
	spec := dirBaseSpec()
	var rows []table.Row[dirAction]
	for _, r := range spec.Rows {
		if r.State == int(dirStExclusive) && r.Event == int(dirEvWrite) {
			continue // delete (E, Write): the 3-hop write forward
		}
		rows = append(rows, r)
	}
	if len(rows) != len(spec.Rows)-1 {
		t.Fatalf("expected to delete exactly one row, deleted %d", len(spec.Rows)-len(rows))
	}
	spec.Rows = rows
	_, err := table.Build(spec, dirWBDelta())
	if err == nil || !strings.Contains(err.Error(), "missing row (E, Write)") {
		t.Fatalf("deleted directory row not rejected: %v", err)
	}
}

// TestPCUTableRejectsDeletedRow does the same for the core machine.
func TestPCUTableRejectsDeletedRow(t *testing.T) {
	spec := pcuBaseSpec()
	var rows []table.Row[pcuAction]
	for _, r := range spec.Rows {
		if r.State == int(pcuStWrite) && r.Event == int(pcuEvDataExcl) {
			continue // delete (Wr, DataExcl): the write grant itself
		}
		rows = append(rows, r)
	}
	spec.Rows = rows
	_, err := table.Build(spec, pcuWBDelta())
	if err == nil || !strings.Contains(err.Error(), "missing row (Wr, DataExcl)") {
		t.Fatalf("deleted PCU row not rejected: %v", err)
	}
}

// TestPCUTableCompleteness pins every registered protocol's core
// machine: 28 of 36 rows are possible under each stack, because the
// WritersBlock and tardis deltas only swap actions (nacking or leasing
// is a behavior change, not a reachability change).
func TestPCUTableCompleteness(t *testing.T) {
	want := map[string]string{
		"base": "pcu", "base-ns": "pcu",
		"wb": "pcu+wb", "wb-ns": "pcu+wb",
		"tardis": "pcu+tardis",
	}
	for _, p := range Protocols() {
		name, ok := want[p.Name]
		if !ok {
			t.Errorf("%s: registered protocol has no pinned PCU shape", p.Name)
			continue
		}
		if p.pcu.Name() != name {
			t.Errorf("%s: PCU machine %q, want %q", p.Name, p.pcu.Name(), name)
		}
		if p.pcu.Possible() != 28 {
			t.Errorf("%s: %d possible rows, want 28", p.pcu.Name(), p.pcu.Possible())
		}
		if p.pcu.Size() != int(numPCUStates)*int(numPCUEvents) {
			t.Errorf("%s: size %d, want %d", p.pcu.Name(), p.pcu.Size(), int(numPCUStates)*int(numPCUEvents))
		}
	}
}

// TestSpecSystemsLintDispatchedMachines: the speclint system built for a
// protocol must analyze exactly the machines that protocol's banks and
// PCUs dispatch through, so a static finding is a finding about the
// running tables.
func TestSpecSystemsLintDispatchedMachines(t *testing.T) {
	for _, p := range Protocols() {
		params := DefaultParams()
		b := NewBank(0, nil, &params, mem.NewMemory(), p)
		c := NewPCU(1, nil, &params, nil, exCore{}, p)
		sys := specSystemFor(p)
		if got := sys.Machines[table.SideDir].Info; got != table.Info(b.machine) {
			t.Errorf("%s: speclint lints directory machine %s (%p), bank dispatches %s (%p)", p.Name, got.Name(), got, b.machine.Name(), b.machine)
		}
		if got := sys.Machines[table.SideCore].Info; got != table.Info(c.machine) {
			t.Errorf("%s: speclint lints core machine %s (%p), PCU dispatches %s (%p)", p.Name, got.Name(), got, c.machine.Name(), c.machine)
		}
	}
}

// TestDirWBDeadWithoutDelta documents the delta discipline: the base
// directory spec declares the WritersBlock states dead, so a squash-mode
// bank reaching WBW/WBEv is a construction-time impossibility, not a
// runtime surprise.
func TestDirWBDeadWithoutDelta(t *testing.T) {
	m, err := table.Build(dirBaseSpec())
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []dirState{dirStWBWrite, dirStWBEvict} {
		for e := 0; e < int(numDirEvents); e++ {
			if k := m.RowKind(int(s), e); k != table.Impossible {
				t.Errorf("base (%v, %v) is %v, want impossible", s, dirEvent(e), k)
			}
		}
	}
}
