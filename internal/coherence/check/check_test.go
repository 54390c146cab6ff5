package check

import (
	"strings"
	"testing"

	"wbsim/internal/coherence"
)

// counts are an exploration's four exact counters. The explorer is
// deterministic, so each configuration has one set of counts at any
// worker count and on any host; a drift means the coherence tables, the
// model or the explorer changed what is reachable.
type counts struct{ States, Transitions, Terminals, MaxDepth int }

func requireCounts(t *testing.T, label string, res *Result, want counts) {
	t.Helper()
	if got := (counts{res.States, res.Transitions, res.Terminals, res.MaxDepth}); got != want {
		t.Errorf("%s: counters drifted: got %+v, want %+v", label, got, want)
	}
}

// TestExhaustiveSingleCore closes the smallest interesting space — one
// core forced through private-cache conflict evictions across two lines
// — and must find no safety violation and no trap.
func TestExhaustiveSingleCore(t *testing.T) {
	res := Explore(Config{Model: coherence.ModelConfig{
		Cores: 1, Banks: 1, Lines: 2, OpsPerCore: 3,
		Mode: coherence.ModeSquash,
	}})
	if !res.Exhaustive {
		t.Fatal("single-core space did not close")
	}
	if !res.Passed() {
		t.Fatalf("violation=%v trap=%v", res.Violation, res.Trap)
	}
	requireCounts(t, "1c1b2l ops3", res, counts{1024, 3129, 2, 36})
}

// TestExhaustiveTwoCoreSquash is the acceptance configuration: two cores
// contending on one line, full network reordering, exhaustively explored
// with zero violations.
func TestExhaustiveTwoCoreSquash(t *testing.T) {
	res := Explore(Config{Model: coherence.ModelConfig{
		Cores: 2, Banks: 1, Lines: 1, OpsPerCore: 2,
		Mode: coherence.ModeSquash,
	}})
	if !res.Exhaustive {
		t.Fatal("two-core one-line space did not close")
	}
	if !res.Passed() {
		t.Fatalf("violation=%v trap=%v", res.Violation, res.Trap)
	}
	requireCounts(t, "2c1b1l squash", res, counts{881, 3042, 4, 42})
}

// TestExhaustiveTwoCoreWritersBlock runs the same contention under
// lockdown mode with a one-lockdown budget, which pulls the whole
// Nack/DelayedAck/WritersBlock row family into the explored space.
// ~43k states, about 1s; skipped under -short.
func TestExhaustiveTwoCoreWritersBlock(t *testing.T) {
	if testing.Short() {
		t.Skip("exhaustive WritersBlock exploration (~1s)")
	}
	res := Explore(Config{Model: coherence.ModelConfig{
		Cores: 2, Banks: 1, Lines: 1, OpsPerCore: 2,
		Lockdowns: 1, Mode: coherence.ModeLockdown,
	}})
	if !res.Exhaustive {
		t.Fatal("WritersBlock space did not close")
	}
	if !res.Passed() {
		t.Fatalf("violation=%v trap=%v", res.Violation, res.Trap)
	}
	requireCounts(t, "2c1b1l lockdown", res, counts{43159, 229766, 16, 70})
}

// TestExplorationCounts pins the counts of the closures no other test
// here explores: the tardis contention space, the fully reduced
// two-line space, and the bounded three-core sweep of check-liveness.
func TestExplorationCounts(t *testing.T) {
	cases := []struct {
		name       string
		cfg        Config
		exhaustive bool
		want       counts
	}{
		{"2c1b1l tardis", Config{Model: coherence.ModelConfig{
			Cores: 2, Banks: 1, Lines: 1, OpsPerCore: 2, Mode: coherence.ModeTardis,
		}}, true, counts{1068, 3586, 4, 43}},
		{"2c1b2l squash sym,por", Config{
			Model: coherence.ModelConfig{
				Cores: 2, Banks: 1, Lines: 2, OpsPerCore: 2, Mode: coherence.ModeSquash,
			},
			Symmetry: true, POR: true,
		}, true, counts{9069, 42747, 2, 51}},
		{"3c2b2l squash capped", Config{
			Model: coherence.ModelConfig{
				Cores: 3, Banks: 2, Lines: 2, OpsPerCore: 2, Mode: coherence.ModeSquash,
			},
			MaxStates: 50000,
		}, false, counts{50000, 277289, 0, 30}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if testing.Short() && !tc.exhaustive {
				t.Skip("capped three-core sweep (~2.5s)")
			}
			res := Explore(tc.cfg)
			if res.Exhaustive != tc.exhaustive {
				t.Fatalf("exhaustive = %v, want %v", res.Exhaustive, tc.exhaustive)
			}
			if !res.Passed() {
				t.Fatalf("violation=%v trap=%v", res.Violation, res.Trap)
			}
			requireCounts(t, tc.name, res, tc.want)
		})
	}
}

// TestDeterministicExploration: two explorations of the same config must
// agree on every counter — the checker is itself a simulation-path
// component and replays must be exact.
func TestDeterministicExploration(t *testing.T) {
	cfg := Config{Model: coherence.ModelConfig{
		Cores: 1, Banks: 1, Lines: 2, OpsPerCore: 2,
		Mode: coherence.ModeSquash,
	}}
	a, b := Explore(cfg), Explore(cfg)
	if a.States != b.States || a.Transitions != b.Transitions ||
		a.Terminals != b.Terminals || a.MaxDepth != b.MaxDepth {
		t.Fatalf("non-deterministic exploration: %+v vs %+v", a, b)
	}
	requireCounts(t, "1c1b2l ops2", a, counts{90, 212, 1, 21})
}

// TestPreFixDeadlockTrap is the root-cause regression: on the pre-fix
// directory tables, the eviction PutE that overtakes its own
// transaction's Unblock is acknowledged stale, stranding the writeback
// buffer forever. The checker must find the trap, and its minimized
// trace must show the exact dispatch that was wrong — the PutOwned
// landing in BusyE — and the stranded buffer in the final state.
func TestPreFixDeadlockTrap(t *testing.T) {
	res := Explore(Config{Model: coherence.ModelConfig{
		Cores: 1, Banks: 1, Lines: 2, OpsPerCore: 2,
		Mode: coherence.ModeSquash, PreFixPutRace: true,
	}})
	if res.Trap == nil {
		t.Fatal("pre-fix tables not flagged")
	}
	if res.Trap.Kind != "deadlock" {
		t.Errorf("trap kind = %q, want deadlock", res.Trap.Kind)
	}
	if res.Violation != nil {
		t.Errorf("unexpected safety violation: %v", res.Violation)
	}
	requireCounts(t, "1c1b2l ops2 pre-fix", res, counts{132, 321, 1, 21})
	joinedSteps := strings.Join(res.Trap.Steps, "\n")
	if !strings.Contains(joinedSteps, "stale") {
		t.Errorf("trace does not show the stale PutAck:\n%s", joinedSteps)
	}
	dispatches := strings.Join(res.Trap.Dispatches, "\n")
	if !strings.Contains(dispatches, "bank0 (BusyE, PutOwned)") {
		t.Errorf("dispatch stream does not show the racing Put:\n%s", dispatches)
	}
	if !strings.Contains(res.Trap.FinalState, "staleAck=true") {
		t.Errorf("final state does not show the stranded writeback buffer:\n%s",
			res.Trap.FinalState)
	}
	// BFS order makes the counterexample minimal; the known-shortest
	// run to the trap is ~21 steps. A blow-up here means minimization
	// regressed.
	if len(res.Trap.Steps) > 30 {
		t.Errorf("counterexample not minimal: %d steps", len(res.Trap.Steps))
	}
}

// TestCorruptRowSafetyViolation deletes protocol correctness one row at
// a time: with (Exclusive, Write) corrupted to grant from the LLC
// without forwarding to the owner, the checker must report the SWMR
// violation with a trace ending in the corrupt dispatch.
func TestCorruptRowSafetyViolation(t *testing.T) {
	res := Explore(Config{Model: coherence.ModelConfig{
		Cores: 2, Banks: 1, Lines: 1, OpsPerCore: 2,
		Mode: coherence.ModeSquash, CorruptWriteRace: true,
	}})
	if res.Violation == nil {
		t.Fatal("corrupted table row not flagged")
	}
	if res.Violation.Kind != "safety" {
		t.Errorf("violation kind = %q, want safety", res.Violation.Kind)
	}
	if !strings.Contains(res.Violation.Reason, "SWMR") {
		t.Errorf("reason = %q, want an SWMR violation", res.Violation.Reason)
	}
	dispatches := strings.Join(res.Violation.Dispatches, "\n")
	if !strings.Contains(dispatches, "bank0 (E, Write)") {
		t.Errorf("dispatch stream does not show the corrupt row firing:\n%s", dispatches)
	}
}

// TestCappedRunReportsInexhaustive: a state cap must be reported as
// such, and must never fabricate a trap (liveness needs the full graph).
func TestCappedRunReportsInexhaustive(t *testing.T) {
	res := Explore(Config{
		Model: coherence.ModelConfig{
			Cores: 2, Banks: 1, Lines: 2, OpsPerCore: 2,
			Mode: coherence.ModeSquash,
		},
		MaxStates: 500,
	})
	if res.Exhaustive {
		t.Fatal("500-state cap cannot close an 18k-state space")
	}
	if !res.Passed() {
		t.Fatalf("capped run fabricated a failure: violation=%v trap=%v",
			res.Violation, res.Trap)
	}
	if res.States > 501 {
		t.Errorf("cap not honoured: %d states", res.States)
	}
}

// TestCounterexampleFormat pins the report format: kind, numbered steps,
// the dispatch stream in the trace-hook "(State, Event)" shape, and the
// indented final state.
func TestCounterexampleFormat(t *testing.T) {
	ce := &Counterexample{
		Kind:   "deadlock",
		Reason: "state has no transitions and is not drained (deadlock)",
		Steps:  []string{"core0 load L0x40", "fire core0 send GetS L0x40 core0->bank0"},
		Dispatches: []string{
			"bank0 (NoEntry, Read)",
			"bank0 (BusyE, PutOwned)",
		},
		FinalState: "core0 pcu 0: mshrs=0 wbBuf=1\n",
	}
	want := `DEADLOCK: state has no transitions and is not drained (deadlock)
counterexample (2 steps):
    1. core0 load L0x40
    2. fire core0 send GetS L0x40 core0->bank0
dispatch stream:
  bank0 (NoEntry, Read)
  bank0 (BusyE, PutOwned)
final state:
  core0 pcu 0: mshrs=0 wbBuf=1
`
	if got := ce.String(); got != want {
		t.Errorf("format drifted:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}
