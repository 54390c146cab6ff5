package core

import (
	"errors"
	"strings"
	"testing"

	"wbsim/internal/cpu"
	"wbsim/internal/isa"
	"wbsim/internal/sim"
)

// TestConfigTable6 pins the class presets to the paper's Table 6.
func TestConfigTable6(t *testing.T) {
	cases := []struct {
		class               Class
		iq, rob, lq, sq, sb int
	}{
		{SLM, 16, 32, 10, 16, 16},
		{NHM, 32, 128, 48, 36, 36},
		{HSW, 60, 192, 72, 42, 42},
	}
	for _, c := range cases {
		cfg := CoreConfig(c.class)
		if cfg.IQSize != c.iq || cfg.ROBSize != c.rob || cfg.LQSize != c.lq ||
			cfg.SQSize != c.sq || cfg.SBSize != c.sb {
			t.Errorf("%s: got IQ=%d ROB=%d LQ=%d SQ=%d SB=%d, want %+v",
				c.class, cfg.IQSize, cfg.ROBSize, cfg.LQSize, cfg.SQSize, cfg.SBSize, c)
		}
		if cfg.FetchWidth != 4 || cfg.IssueWidth != 4 || cfg.CommitWidth != 4 {
			t.Errorf("%s: widths must be 4 (Table 6)", c.class)
		}
		if cfg.LDTSize != 32 {
			t.Errorf("%s: LDT = %d, want 32 (Table 6)", c.class, cfg.LDTSize)
		}
	}
}

// TestConfigTable6Memory pins the memory-system constants.
func TestConfigTable6Memory(t *testing.T) {
	cfg := DefaultConfig(SLM, OoOWB)
	m := cfg.Mem
	if m.L1Latency != 4 || m.L2Latency != 12 || m.LLCLatency != 35 || m.MemLatency != 160 {
		t.Errorf("latencies: L1=%d L2=%d LLC=%d mem=%d", m.L1Latency, m.L2Latency, m.LLCLatency, m.MemLatency)
	}
	if m.L1Lines*64 != 32<<10 || m.L2Lines*64 != 128<<10 || m.LLCLines*64 != 1<<20 {
		t.Errorf("capacities: L1=%dKB L2=%dKB LLC=%dKB",
			m.L1Lines*64>>10, m.L2Lines*64>>10, m.LLCLines*64>>10)
	}
	if m.L1Ways != 8 || m.L2Ways != 8 || m.LLCWays != 8 {
		t.Error("associativity must be 8 (Table 6)")
	}
	n := cfg.Net
	if n.SwitchLatency != 6 || n.DataFlits != 5 || n.CtrlFlits != 1 || n.Width != 4 || n.Height != 4 {
		t.Errorf("network: %+v", n)
	}
}

// TestVariantApply checks the commit/coherence pairings derived from
// the protocol registry.
func TestVariantApply(t *testing.T) {
	cases := []struct {
		v        Variant
		mode     cpu.CommitMode
		lockdown bool
	}{
		{InOrderBase, cpu.CommitInOrder, false},
		{InOrderWB, cpu.CommitInOrder, true},
		{OoOBase, cpu.CommitOoOSafe, false},
		{OoOWB, cpu.CommitOoOWB, true},
		{InOrderTardis, cpu.CommitInOrder, false},
		{OoOTardis, cpu.CommitOoOSafe, false},
		{OoOUnsafe, cpu.CommitOoOUnsafe, false},
	}
	for _, c := range cases {
		cfg := CoreConfig(SLM)
		if err := c.v.Apply(&cfg); err != nil {
			t.Fatalf("%s: %v", c.v, err)
		}
		if cfg.CommitMode != c.mode || cfg.Lockdown != c.lockdown {
			t.Errorf("%s: mode=%v lockdown=%v", c.v, cfg.CommitMode, cfg.Lockdown)
		}
	}
}

func TestUnknownClassPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("unknown class did not panic")
		}
	}()
	CoreConfig("XXX")
}

// TestUnknownVariant checks the typed error: unknown names resolve to
// an *UnknownVariantError listing the registered variants.
func TestUnknownVariant(t *testing.T) {
	cfg := CoreConfig(SLM)
	err := Variant("bogus").Apply(&cfg)
	if err == nil {
		t.Fatal("unknown variant did not error")
	}
	var uv *UnknownVariantError
	if !errors.As(err, &uv) {
		t.Fatalf("want *UnknownVariantError, got %T: %v", err, err)
	}
	if uv.Variant != "bogus" || len(uv.Known) == 0 {
		t.Fatalf("error not populated: %+v", uv)
	}
	for _, want := range []string{"inorder-base", "ooo-tardis", "ooo-unsafe"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error message %q does not list %s", err, want)
		}
	}
}

// TestVariantMatrix pins the registry-derived matrix: the paper's four
// evaluated variants plus the tardis pairings and the unsound demo.
func TestVariantMatrix(t *testing.T) {
	want := []Variant{
		InOrderBase, InOrderWB, InOrderTardis,
		OoOBase, OoOWB, OoOTardis, OoOUnsafe,
	}
	got := AllVariants()
	if len(got) != len(want) {
		t.Fatalf("AllVariants() = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("AllVariants() = %v, want %v", got, want)
		}
	}
	sound := SoundVariants()
	if len(sound) != len(want)-1 {
		t.Fatalf("SoundVariants() = %v", sound)
	}
	for _, v := range Variants {
		s, err := v.Spec()
		if err != nil {
			t.Fatalf("%s: %v", v, err)
		}
		if !s.Evaluated {
			t.Errorf("%s: paper variant not marked Evaluated", v)
		}
	}
	if s, _ := OoOTardis.Spec(); s == nil || s.Evaluated {
		t.Error("ooo-tardis must derive but stay outside the paper's evaluated four")
	}
}

func TestNewSystemValidation(t *testing.T) {
	cfg := SmallConfig(2, OoOWB)
	defer func() {
		if recover() == nil {
			t.Fatal("program-count mismatch did not panic")
		}
	}()
	NewSystem(cfg, nil)
}

// TestShardsShim checks what is left of the removed sharded kernel:
// Shards 0 and 1 both build and run the one simulation loop to the same
// result, and anything larger is rejected with an error that says the
// kernel is gone.
func TestShardsShim(t *testing.T) {
	build := func(shards int) *System {
		rng := sim.NewRand(7)
		cfg := SmallConfig(2, OoOWB)
		cfg.Shards = shards
		return NewSystem(cfg, []*isa.Program{randomProgram(rng, 0), randomProgram(rng, 1)})
	}
	var results [2]Results
	for shards := range results {
		sys := build(shards)
		if _, err := sys.Run(); err != nil {
			t.Fatalf("Shards=%d: %v", shards, err)
		}
		results[shards] = sys.Collect()
		results[shards].Coverage = nil
	}
	if results[0] != results[1] {
		t.Fatalf("Shards=0 and Shards=1 diverge:\n%+v\n%+v", results[0], results[1])
	}
	defer func() {
		err, ok := recover().(error)
		if !ok || !strings.Contains(err.Error(), "sharded kernel was removed") {
			t.Fatalf("Shards=2: got panic %v, want an error naming the removal", err)
		}
	}()
	build(2)
}
