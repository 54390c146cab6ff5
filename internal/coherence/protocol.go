package coherence

// The protocol registry: the single place where a coherence protocol's
// identity lives. A Protocol bundles the directory and PCU table deltas
// it layers over the base MESI machines (composed once, here, at
// registration), the core-reaction mode, parameter requirements
// (Validate), and experiment-matrix membership. Controllers take the
// resolved *Protocol and dispatch through its machines; no other file
// names a shipping delta. Consumers iterate Protocols() instead of
// keeping their own lists: core builds its commit-policy × protocol
// variant matrix from it, cmd/wbsimspec and the speclint pairings walk
// it, the coverage report is keyed by its machines, the conformance
// suite proves every entry against the litmus matrix, and
// cmd/experiments compares the Evaluated entries head-to-head.
//
// Registering a protocol is the whole integration: a new entry (plus its
// table deltas) appears in every tool, test, and report with no other
// edits — tardis (tardis.go) is registered exactly this way.

import (
	"fmt"
	"slices"
	"sort"

	"wbsim/internal/coherence/table"
)

// Protocol describes one registered coherence protocol.
type Protocol struct {
	// Name is the registry key, used in variant names ("<commit>-<name>")
	// and tool flags.
	Name string
	// Desc is the one-line description help text and docs are generated
	// from.
	Desc string
	// Mode selects the core's reaction to consistency events (squash,
	// lockdown, or lease expiry).
	Mode Mode
	// NonSilent makes shared-line evictions notify the directory
	// (PutSh). The PCU reads it from here; its directory stack must
	// carry the ns delta that accepts PutSh.
	NonSilent bool
	// Evaluated marks the protocols that form commit-policy variants and
	// appear in the head-to-head experiment matrix. Non-evaluated
	// entries (the non-silent table flavors) still get the full static
	// and conformance treatment.
	Evaluated bool

	// dirDeltas and pcuDeltas are the table deltas layered, in order,
	// over the base directory and PCU specs.
	dirDeltas []table.Delta[dirAction]
	pcuDeltas []table.Delta[pcuAction]
	// dir and pcu are the composed machines, built at registration and
	// shared with every earlier protocol running the same stack.
	dir *table.Machine[dirAction]
	pcu *table.Machine[pcuAction]
}

// DirFlavorName names the composed directory machine this protocol runs,
// for reports and docs.
func (p *Protocol) DirFlavorName() string { return p.dir.Name() }

// Validate checks a parameter set against the protocol's requirements.
func (p *Protocol) Validate(params *Params) error {
	if p.Mode == ModeTardis && params.TardisLease < 1 {
		return fmt.Errorf("protocol %s: TardisLease must be positive, got %d", p.Name, params.TardisLease)
	}
	return nil
}

// protocols is the registry, in registration order (package init order:
// the MESI family below, then tardis from tardis.go's init).
var protocols []*Protocol

// registerProtocol adds a protocol to the registry and composes its
// machines (table.MustBuild completeness-checks them). It panics on a
// duplicate name, an inconsistent entry, or an incomplete table —
// registration happens at package init, so a bad entry fails every test
// immediately.
func registerProtocol(p *Protocol) *Protocol {
	if p.Name == "" || p.Desc == "" {
		panic("coherence: protocol registration needs Name and Desc")
	}
	for _, q := range protocols {
		if q.Name == p.Name {
			panic(fmt.Sprintf("coherence: duplicate protocol %q", p.Name))
		}
	}
	if p.Mode == ModeTardis && p.NonSilent {
		panic(fmt.Sprintf("coherence: protocol %q: tardis cannot run non-silent shared evictions", p.Name))
	}
	p.dir = table.MustBuild(dirBaseSpec(), p.dirDeltas...)
	p.pcu = table.MustBuild(pcuBaseSpec(), p.pcuDeltas...)
	// Protocols with the same stack share one machine, so coverage
	// aggregates and hygiene passes see each composed table once.
	for _, q := range protocols {
		if q.dir.Name() == p.dir.Name() {
			p.dir = q.dir
		}
		if q.pcu.Name() == p.pcu.Name() {
			p.pcu = q.pcu
		}
	}
	//wbsim:rawcounter -- init-time registry, frozen after package init; not per-run state
	protocols = append(protocols, p)
	return p
}

// The MESI protocol family: the paper's base directory protocol and its
// WritersBlock extension, each in silent and non-silent shared-eviction
// flavors.
var (
	// ProtoBase is the paper's baseline MESI directory protocol:
	// consistency events squash and re-execute M-speculative loads.
	ProtoBase = registerProtocol(&Protocol{
		Name:      "base",
		Desc:      "MESI directory protocol; invalidations squash M-speculative loads",
		Mode:      ModeSquash,
		Evaluated: true,
	})
	// ProtoBaseNS is the base protocol with non-silent shared evictions
	// (PutSh), reproducing the paper's Section 3.8 traffic comparison.
	ProtoBaseNS = registerProtocol(&Protocol{
		Name:      "base-ns",
		Desc:      "base protocol with non-silent shared evictions (PutSh)",
		Mode:      ModeSquash,
		NonSilent: true,
		dirDeltas: []table.Delta[dirAction]{dirNSDelta()},
	})
	// ProtoWB is the paper's contribution: WritersBlock. Lockdowns nack
	// invalidations and the directory parks writers instead of squashing
	// reordered loads.
	ProtoWB = registerProtocol(&Protocol{
		Name:      "wb",
		Desc:      "WritersBlock: lockdowns nack invalidations, the directory parks blocked writers",
		Mode:      ModeLockdown,
		Evaluated: true,
		dirDeltas: []table.Delta[dirAction]{dirWBDelta()},
		pcuDeltas: []table.Delta[pcuAction]{pcuWBDelta()},
	})
	// ProtoWBNS is WritersBlock with non-silent shared evictions.
	ProtoWBNS = registerProtocol(&Protocol{
		Name:      "wb-ns",
		Desc:      "WritersBlock with non-silent shared evictions (PutSh)",
		Mode:      ModeLockdown,
		NonSilent: true,
		dirDeltas: []table.Delta[dirAction]{dirWBDelta(), dirNSDelta(), dirWBNSDelta()},
		pcuDeltas: []table.Delta[pcuAction]{pcuWBDelta()},
	})
)

// dirOwners and pcuOwners return, in registration order, the first
// protocol running each distinct directory or PCU machine.
func dirOwners() []*Protocol { return firstPer(func(p *Protocol) any { return p.dir }) }
func pcuOwners() []*Protocol { return firstPer(func(p *Protocol) any { return p.pcu }) }

func firstPer(machine func(*Protocol) any) []*Protocol {
	var out []*Protocol
	for _, p := range protocols {
		if !slices.ContainsFunc(out, func(q *Protocol) bool { return machine(q) == machine(p) }) {
			out = append(out, p)
		}
	}
	return out
}

// Protocols returns the registered protocols in registration order. The
// returned slice is a copy; the entries are shared.
func Protocols() []*Protocol {
	return append([]*Protocol(nil), protocols...)
}

// EvaluatedProtocols returns the registered protocols that form variants
// and experiment-matrix rows, in registration order.
func EvaluatedProtocols() []*Protocol {
	var out []*Protocol
	for _, p := range protocols {
		if p.Evaluated {
			out = append(out, p)
		}
	}
	return out
}

// ProtocolFor resolves the registered protocol running a given mode and
// shared-eviction flavor, or nil if no protocol covers the pairing
// (e.g. tardis has no non-silent flavor). Systems use it to resolve the
// effective protocol after Params may have flipped the eviction flavor
// under a variant's nominal protocol.
func ProtocolFor(mode Mode, nonSilent bool) *Protocol {
	for _, p := range protocols {
		if p.Mode == mode && p.NonSilent == nonSilent {
			return p
		}
	}
	return nil
}

// ProtocolByName resolves a registered protocol, or nil.
func ProtocolByName(name string) *Protocol {
	for _, p := range protocols {
		if p.Name == name {
			return p
		}
	}
	return nil
}

// ModeByName resolves a core-reaction mode by its String() name,
// derived from the registered protocols' modes (the model checker's
// -mode flag speaks mode names, not protocol names).
func ModeByName(name string) (Mode, bool) {
	for _, p := range protocols {
		if p.Mode.String() == name {
			return p.Mode, true
		}
	}
	return 0, false
}

// ModeNames lists the distinct mode names of the registered protocols,
// sorted, for flag-error messages.
func ModeNames() []string {
	seen := map[string]bool{}
	var out []string
	for _, p := range protocols {
		if n := p.Mode.String(); !seen[n] {
			seen[n] = true
			out = append(out, n)
		}
	}
	sort.Strings(out)
	return out
}
