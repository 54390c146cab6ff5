package coherence

import (
	"fmt"
	"strings"

	"wbsim/internal/coherence/table"
)

// CoverageAgg accumulates transition fire counts across controllers and
// runs, keyed by composed machine. A machine's slot stays nil until a
// controller running it is observed, so a squash-only campaign reports
// nothing about the lockdown tables instead of reporting them uncovered.
// Only registered machines are reported; the model checker's altered
// tables never reach an aggregate.
type CoverageAgg struct {
	dir map[*table.Machine[dirAction]][]uint64
	pcu map[*table.Machine[pcuAction]][]uint64

	// conf collects effects-conformance violations from instrumented
	// controllers (the exercise benches attach recorders; see
	// conformance.go). Violations ride along with coverage so the
	// directed suite reports annotation drift alongside fire counts.
	conf []string
}

// NewCoverageAgg returns an empty aggregate.
func NewCoverageAgg() *CoverageAgg {
	return &CoverageAgg{
		dir: make(map[*table.Machine[dirAction]][]uint64),
		pcu: make(map[*table.Machine[pcuAction]][]uint64),
	}
}

func mergeCov[K comparable](dst map[K][]uint64, k K, src []uint64) {
	if src == nil {
		return
	}
	acc := dst[k]
	if acc == nil {
		acc = make([]uint64, len(src))
		dst[k] = acc
	}
	for i, v := range src {
		acc[i] += v
	}
}

// AddBank folds one directory bank's fire counts into the aggregate.
func (a *CoverageAgg) AddBank(b *Bank) {
	mergeCov(a.dir, b.machine, b.cov)
	if b.conf != nil {
		a.conf = append(a.conf, b.conf.ck.violations...)
	}
}

// AddPCU folds one core controller's fire counts into the aggregate.
func (a *CoverageAgg) AddPCU(p *PCU) {
	mergeCov(a.pcu, p.machine, p.cov)
	if p.conf != nil {
		a.conf = append(a.conf, p.conf.ck.violations...)
	}
}

// ConformanceViolations returns the effects-conformance divergences
// recorded by instrumented controllers folded into this aggregate.
func (a *CoverageAgg) ConformanceViolations() []string { return a.conf }

// Merge folds another aggregate into this one. A nil argument is a
// no-op, so callers can merge seed outcomes unconditionally.
func (a *CoverageAgg) Merge(o *CoverageAgg) {
	if o == nil {
		return
	}
	for _, p := range dirOwners() {
		mergeCov(a.dir, p.dir, o.dir[p.dir])
	}
	for _, p := range pcuOwners() {
		mergeCov(a.pcu, p.pcu, o.pcu[p.pcu])
	}
	a.conf = append(a.conf, o.conf...)
}

// Empty reports whether no controller has been observed.
func (a *CoverageAgg) Empty() bool {
	return a == nil || len(a.dir)+len(a.pcu) == 0
}

// Reports returns one coverage report per observed machine, in a fixed
// order (directory machines, then PCU machines, each in registration
// order).
func (a *CoverageAgg) Reports() []table.Report {
	var out []table.Report
	for _, p := range dirOwners() {
		if cov := a.dir[p.dir]; cov != nil {
			out = append(out, p.dir.Report(cov))
		}
	}
	for _, p := range pcuOwners() {
		if cov := a.pcu[p.pcu]; cov != nil {
			out = append(out, p.pcu.Report(cov))
		}
	}
	return out
}

// Total aggregates all observed machines into one report (Machine "all").
func (a *CoverageAgg) Total() table.Report {
	t := table.Report{Machine: "all"}
	for _, r := range a.Reports() {
		t.Possible += r.Possible
		t.Fired += r.Fired
		t.Unfired = append(t.Unfired, r.Unfired...)
	}
	return t
}

// String renders the -coverage view: one summary line per machine plus
// its silent (never-fired, non-Impossible) rows.
func (a *CoverageAgg) String() string {
	reports := a.Reports()
	if len(reports) == 0 {
		return "transition coverage: no controllers observed\n"
	}
	var b strings.Builder
	b.WriteString("transition coverage:\n")
	for _, r := range reports {
		fmt.Fprintf(&b, "  %s\n", r)
		for _, u := range r.Unfired {
			fmt.Fprintf(&b, "    silent: %s\n", u)
		}
	}
	if len(reports) > 1 {
		fmt.Fprintf(&b, "  %s\n", a.Total())
	}
	return b.String()
}
