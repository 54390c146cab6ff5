package litmus

import (
	"testing"

	"wbsim/internal/coherence"
	"wbsim/internal/core"
	"wbsim/internal/faults"
)

// Registry conformance: every protocol registered with
// internal/coherence must hold the same bar the paper's protocols hold —
// complete composed tables, a clean litmus suite under every variant it
// forms, and a clean short chaos sweep. The loops below iterate the
// registry, so registering a protocol enrolls it here with no edits.

// TestRegistryProtocolsComplete asserts every registered protocol
// resolves complete composed machines and a self-consistent descriptor.
// (MustBuild already ran at package init — an incomplete table cannot
// even load — so this pins the registry's view of it.)
func TestRegistryProtocolsComplete(t *testing.T) {
	protos := coherence.Protocols()
	if len(protos) < 5 {
		t.Fatalf("registry too small: %d protocols (want base, base-ns, wb, wb-ns, tardis)", len(protos))
	}
	seen := map[string]bool{}
	for _, p := range protos {
		if seen[p.Name] {
			t.Errorf("duplicate protocol %q", p.Name)
		}
		seen[p.Name] = true
		if p.Desc == "" {
			t.Errorf("%s: no description", p.Name)
		}
		if p.DirFlavorName() == "" {
			t.Errorf("%s: no composed directory machine", p.Name)
		}
		if got := coherence.ProtocolByName(p.Name); got != p {
			t.Errorf("ProtocolByName(%q) = %v", p.Name, got)
		}
		if got := coherence.ProtocolFor(p.Mode, p.NonSilent); got != p {
			t.Errorf("ProtocolFor(%v, %v) = %v, want %s", p.Mode, p.NonSilent, got, p.Name)
		}
		// Validate must accept the default parameter set.
		params := coherence.DefaultParams()
		if err := p.Validate(&params); err != nil {
			t.Errorf("%s: Validate(default params): %v", p.Name, err)
		}
	}
	for _, name := range []string{"base", "wb", "tardis"} {
		p := coherence.ProtocolByName(name)
		if p == nil || !p.Evaluated {
			t.Errorf("protocol %q missing or not evaluated", name)
		}
	}
}

// TestRegistryVariantsTSO runs the full litmus suite under every sound
// variant derived from the registry. TestSuiteTSO covers the paper's
// four at full depth; this pass covers the whole derived matrix (today
// that adds inorder-tardis and ooo-tardis) at conformance depth.
func TestRegistryVariantsTSO(t *testing.T) {
	opts := DefaultOptions()
	opts.Seeds = 10
	if testing.Short() {
		opts.Seeds = 4
	}
	for _, v := range core.SoundVariants() {
		v := v
		t.Run(string(v), func(t *testing.T) {
			for _, test := range Suite() {
				res := Run(test, v, opts)
				for _, err := range res.Errors {
					t.Errorf("%s: %v", test.Name, err)
				}
				if res.Violations > 0 {
					t.Errorf("%s: %d TSO violations\n%s", test.Name, res.Violations, res.String())
				}
				if res.Runs == 0 {
					t.Errorf("%s: no successful runs", test.Name)
				}
			}
		})
	}
}

// TestRegistryChaosShort is the registry-wide chaos bar: a short
// fault-plan sweep over every sound variant must finish with zero
// violations, zero hangs, zero panics.
func TestRegistryChaosShort(t *testing.T) {
	plans := faults.Catalog()
	opts := Options{Seeds: 2, Jitter: 24}
	if testing.Short() {
		plans = plans[:2]
	}
	sum := Chaos(Suite(), core.SoundVariants(), plans, opts)
	if sum.Failed() {
		t.Fatalf("registry chaos sweep failed:\n%s", sum.String())
	}
	want := len(Suite()) * len(core.SoundVariants()) * len(plans) * opts.Seeds
	if sum.Runs != want {
		t.Fatalf("runs = %d, want %d", sum.Runs, want)
	}
}
