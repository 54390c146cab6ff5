// Package table implements the declarative transition engine the
// coherence controllers run on: a protocol machine is a plain-data table
// of (state, event) rows, each either Handled (runs an action), Nacked
// (runs an action that negatively acknowledges the sender), or
// Impossible (firing it is a protocol-invariant violation). Machines are
// composed from a base table plus delta tables — exactly how the paper
// layers WritersBlock on top of the MESI baseline in SLICC — and checked
// for completeness at construction: every declared (state, event) pair
// must be covered after delta merging, so a silently dropped message is
// a build error, not a runtime mystery.
//
// Firing a row bumps a per-controller coverage counter, which litmus and
// chaos campaigns aggregate to report protocol transitions never
// exercised (the `-coverage` view of cmd/litmus and cmd/experiments).
package table

import (
	"fmt"
	"sort"
)

// Kind classifies a transition row.
type Kind int

const (
	// Handled rows run their action; this is the normal protocol path.
	Handled Kind = iota
	// Nacked rows run an action whose job is to refuse the message
	// (stale-put acknowledgements, lockdown Nacks). They are legal
	// protocol traffic, kept distinct so audits can see every refusal.
	Nacked
	// Impossible rows document (state, event) pairs the protocol can
	// never produce; firing one panics with the row's reason.
	Impossible
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case Handled:
		return "handled"
	case Nacked:
		return "nacked"
	case Impossible:
		return "impossible"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Row is one transition: in State, on Event, do Do. Why carries the
// one-line audit reason; it is mandatory for Nacked and Impossible rows.
// Effects is the action's declarative shadow for the static passes (see
// effects.go); nil means unannotated, which the composed-system lint
// reports for Handled/Nacked rows.
type Row[A any] struct {
	State   int
	Event   int
	Kind    Kind
	Why     string
	Do      A
	Effects *Effects
}

// Spec declares a base machine: its state/event name spaces, the rows,
// and which states/events are dead — declared but expected to carry only
// Impossible rows (e.g. the WritersBlock states of a base-protocol bank,
// which only a delta can revive). Resources names the bounded resources
// row effects may acquire or release (evbuf slots, MSHRs, pending-queue
// entries); Effects.Acquires/Releases index into it.
type Spec[A any] struct {
	Name       string
	States     []string
	Events     []string
	Rows       []Row[A]
	DeadStates []int
	DeadEvents []int
	Resources  []string
}

// Delta is a named overlay: its rows replace the base rows for the same
// (state, event) pairs, and its Revive lists remove states/events from
// the base's dead sets (a delta that handles a previously-impossible
// event must say so). KillStates is the inverse of ReviveStates: the
// delta declares base-live states unreachable under its composition
// (e.g. a timestamp protocol with no sharer list kills the Shared
// state) and must override all their non-Impossible rows with
// Impossible ones, which Build then enforces.
type Delta[A any] struct {
	Name         string
	Rows         []Row[A]
	ReviveStates []int
	ReviveEvents []int
	KillStates   []int
}

// Machine is a built, immutable transition table. Coverage counters live
// outside the machine (NewCoverage) so controllers sharing one machine
// count independently and merge deterministically.
//
// The dispatch path indexes a single dense [state*ne+event] row slice:
// kind and action live side by side in one struct so Fire touches one
// cache line per row instead of two parallel slices. The audit reasons
// (whys) are cold — only panics and reports read them — and stay in a
// separate slice to keep rows small.
type Machine[A any] struct {
	name      string
	states    []string
	events    []string
	rows      []row[A]
	whys      []string
	fx        []*Effects
	resources []string
}

// row is one dense transition-table cell: the row kind and its action.
type row[A any] struct {
	kind Kind
	do   A
}

// Build composes a base spec with deltas (applied in order, later deltas
// winning) and validates the result:
//
//   - every state/event index in range, no duplicate rows per layer
//   - every (state, event) pair covered — completeness
//   - Nacked and Impossible rows carry a reason
//   - dead states/events hold only Impossible rows; live ones hold at
//     least one non-Impossible row — reachability
func Build[A any](spec Spec[A], deltas ...Delta[A]) (*Machine[A], error) {
	ns, ne := len(spec.States), len(spec.Events)
	if ns == 0 || ne == 0 {
		return nil, fmt.Errorf("table %s: empty state or event space", spec.Name)
	}
	name := spec.Name
	for _, d := range deltas {
		name += "+" + d.Name
	}
	m := &Machine[A]{
		name:      name,
		states:    spec.States,
		events:    spec.Events,
		rows:      make([]row[A], ns*ne),
		whys:      make([]string, ns*ne),
		fx:        make([]*Effects, ns*ne),
		resources: spec.Resources,
	}
	covered := make([]bool, ns*ne)
	layer := func(layerName string, rows []Row[A]) error {
		seen := make([]bool, ns*ne)
		for _, r := range rows {
			if r.State < 0 || r.State >= ns || r.Event < 0 || r.Event >= ne {
				return fmt.Errorf("table %s: layer %s: row (%d, %d) out of range", name, layerName, r.State, r.Event)
			}
			i := r.State*ne + r.Event
			if seen[i] {
				return fmt.Errorf("table %s: layer %s: duplicate row (%s, %s)",
					name, layerName, spec.States[r.State], spec.Events[r.Event])
			}
			seen[i] = true
			if r.Why == "" && r.Kind != Handled {
				return fmt.Errorf("table %s: layer %s: %s row (%s, %s) needs a reason",
					name, layerName, r.Kind, spec.States[r.State], spec.Events[r.Event])
			}
			if err := validateEffects(spec, layerName, r); err != nil {
				return err
			}
			covered[i] = true
			m.rows[i] = row[A]{kind: r.Kind, do: r.Do}
			m.whys[i] = r.Why
			m.fx[i] = r.Effects
		}
		return nil
	}
	if err := layer(spec.Name, spec.Rows); err != nil {
		return nil, err
	}
	deadStates := boolSet(ns, spec.DeadStates)
	deadEvents := boolSet(ne, spec.DeadEvents)
	for _, d := range deltas {
		if err := layer(d.Name, d.Rows); err != nil {
			return nil, err
		}
		for _, s := range d.ReviveStates {
			deadStates[s] = false
		}
		for _, e := range d.ReviveEvents {
			deadEvents[e] = false
		}
		for _, s := range d.KillStates {
			deadStates[s] = true
		}
	}
	for s := 0; s < ns; s++ {
		for e := 0; e < ne; e++ {
			if !covered[s*ne+e] {
				return nil, fmt.Errorf("table %s: missing row (%s, %s)", name, spec.States[s], spec.Events[e])
			}
		}
	}
	for s := 0; s < ns; s++ {
		if err := m.checkLiveness("state", spec.States[s], deadStates[s], func(e int) Kind { return m.rows[s*ne+e].kind }, ne); err != nil {
			return nil, err
		}
	}
	for e := 0; e < ne; e++ {
		if err := m.checkLiveness("event", spec.Events[e], deadEvents[e], func(s int) Kind { return m.rows[s*ne+e].kind }, ns); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// checkLiveness enforces the reachability rule along one axis: a dead
// state/event may hold only Impossible rows, a live one at least one row
// that is not Impossible.
func (m *Machine[A]) checkLiveness(axis, name string, dead bool, kindAt func(int) Kind, n int) error {
	live := 0
	for i := 0; i < n; i++ {
		if kindAt(i) != Impossible {
			live++
		}
	}
	if dead && live > 0 {
		return fmt.Errorf("table %s: dead %s %s has %d non-impossible rows", m.name, axis, name, live)
	}
	if !dead && live == 0 {
		return fmt.Errorf("table %s: %s %s is unreachable (all rows impossible); declare it dead or handle it", m.name, axis, name)
	}
	return nil
}

func boolSet(n int, idx []int) []bool {
	s := make([]bool, n)
	for _, i := range idx {
		s[i] = true
	}
	return s
}

// MustBuild is Build for package-level machine construction.
func MustBuild[A any](spec Spec[A], deltas ...Delta[A]) *Machine[A] {
	m, err := Build(spec, deltas...)
	if err != nil {
		panic(err)
	}
	return m
}

// Name returns the composed machine name (base+delta+...).
func (m *Machine[A]) Name() string { return m.name }

// NumStates and NumEvents report the table dimensions.
func (m *Machine[A]) NumStates() int { return len(m.states) }

// NumEvents reports the event-space size.
func (m *Machine[A]) NumEvents() int { return len(m.events) }

// Size is the row count (NumStates × NumEvents), the length of a
// coverage slice.
func (m *Machine[A]) Size() int { return len(m.rows) }

// NewCoverage allocates a zeroed fire-count slice for this machine.
func (m *Machine[A]) NewCoverage() []uint64 { return make([]uint64, m.Size()) }

// StateName and EventName name the table axes.
func (m *Machine[A]) StateName(s int) string { return m.states[s] }

// EventName names one event index.
func (m *Machine[A]) EventName(e int) string { return m.events[e] }

// RowKind reports the kind of one row.
func (m *Machine[A]) RowKind(s, e int) Kind { return m.rows[s*len(m.events)+e].kind }

// RowWhy reports the audit reason of one row.
func (m *Machine[A]) RowWhy(s, e int) string { return m.whys[s*len(m.events)+e] }

// Possible counts the non-Impossible rows — the coverage denominator.
func (m *Machine[A]) Possible() int {
	n := 0
	for i := range m.rows {
		if m.rows[i].kind != Impossible {
			n++
		}
	}
	return n
}

// Fire dispatches one event: it bumps the row's fire count in cov,
// panics if the row is Impossible, and returns the row's action for the
// caller to run. cov must come from NewCoverage (or be nil to skip
// counting).
func (m *Machine[A]) Fire(cov []uint64, state, event int) A {
	i := state*len(m.events) + event
	if cov != nil {
		cov[i]++
	}
	r := &m.rows[i]
	if r.kind == Impossible {
		m.panicImpossible(state, event)
	}
	return r.do
}

// panicImpossible reports an Impossible row firing; kept out of line so
// Fire stays small.
//
//go:noinline
func (m *Machine[A]) panicImpossible(state, event int) {
	panic(fmt.Sprintf("table %s: impossible transition (%s, %s): %s",
		m.name, m.states[state], m.events[event], m.whys[state*len(m.events)+event]))
}

// Report summarizes the coverage of one machine over a merged fire-count
// slice.
type Report struct {
	Machine  string
	Possible int      // non-Impossible rows
	Fired    int      // distinct non-Impossible rows with count > 0
	Unfired  []string // "(State, Event) kind" of silent rows, sorted

	// Per-kind breakdown of the same counts: the Nacked family (refusal
	// traffic — lockdown Nacks, stale-put acks) is the part chaos
	// campaigns under-exercise, so audits want it separated from the
	// Handled mainline.
	HandledPossible int
	HandledFired    int
	NackedPossible  int
	NackedFired     int
}

// Percent is Fired over Possible in percent (100 for an empty table).
func (r Report) Percent() float64 {
	if r.Possible == 0 {
		return 100
	}
	return 100 * float64(r.Fired) / float64(r.Possible)
}

// String renders the one-line summary used by the -coverage view.
func (r Report) String() string {
	return fmt.Sprintf("%-28s %3d/%3d rows fired (%5.1f%%)", r.Machine, r.Fired, r.Possible, r.Percent())
}

// Breakdown renders the per-kind split (handled vs nacked fired/possible)
// as a one-line suffix for detailed coverage views.
func (r Report) Breakdown() string {
	return fmt.Sprintf("handled %d/%d, nacked %d/%d",
		r.HandledFired, r.HandledPossible, r.NackedFired, r.NackedPossible)
}

// Report builds the coverage summary for a merged fire-count slice.
func (m *Machine[A]) Report(cov []uint64) Report {
	r := Report{Machine: m.name}
	ne := len(m.events)
	for i := range m.rows {
		k := m.rows[i].kind
		if k == Impossible {
			continue
		}
		r.Possible++
		fired := i < len(cov) && cov[i] > 0
		if fired {
			r.Fired++
		} else {
			r.Unfired = append(r.Unfired,
				fmt.Sprintf("(%s, %s) %s", m.states[i/ne], m.events[i%ne], k))
		}
		switch k { //wbsim:partial(Impossible) -- filtered by the continue above
		case Handled:
			r.HandledPossible++
			if fired {
				r.HandledFired++
			}
		case Nacked:
			r.NackedPossible++
			if fired {
				r.NackedFired++
			}
		}
	}
	sort.Strings(r.Unfired)
	return r
}
