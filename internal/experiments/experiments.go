// Package experiments regenerates the paper's evaluation artifacts:
// Figure 8 (WritersBlock events per kilo-store / uncacheable reads per
// kilo-load), Figure 9 (execution time and network traffic overhead of
// the WritersBlock protocol), Figure 10 (commit-stall breakdown and
// normalized execution time of out-of-order commit), and the auxiliary
// squash-elimination study. Each experiment returns stats tables whose
// rows correspond to the figure's bars/series.
//
// All experiments run on an Engine: the independent simulations of a
// figure fan out across a worker pool and duplicate (workload, config)
// combinations are memoized, while tables stay byte-identical to a
// sequential run. The package-level functions are conveniences that run
// on a fresh default engine; share one Engine across experiments to
// dedupe simulations between figures.
package experiments

import (
	"fmt"

	"wbsim/internal/core"
	"wbsim/internal/sim"
	"wbsim/internal/stats"
	"wbsim/internal/workload"
)

// Options control experiment runs.
type Options struct {
	Cores int
	Scale int // workload scale factor
	Seed  uint64
	// MaxCycles overrides the per-run cycle budget when > 0, so a hang
	// found by the chaos campaign reproduces quickly from the CLI.
	MaxCycles sim.Cycle
}

// DefaultOptions mirror the paper's 16-core runs.
func DefaultOptions() Options { return Options{Cores: 16, Scale: 2, Seed: 1} }

// Fig8 runs Engine.Fig8 on a fresh default engine.
func Fig8(opt Options) (*stats.Table, error) { return NewEngine(0).Fig8(opt) }

// Fig8 reproduces Figure 8: per benchmark and core class, write requests
// blocked per kilo-store (top graph) and uncacheable tear-off reads per
// kilo-load (bottom graph), measured under out-of-order commit with
// WritersBlock coherence.
func (e *Engine) Fig8(opt Options) (*stats.Table, error) {
	ws := workload.Evaluation()
	var jobs []simJob
	for _, w := range ws {
		for _, class := range core.Classes {
			jobs = append(jobs, simJob{
				label: fmt.Sprintf("fig8 %s/%s", w.Name, class),
				w:     w,
				cfg:   figConfig(class, core.OoOWB, opt),
				scale: opt.Scale,
			})
		}
	}
	results, err := e.run(jobs)
	if err != nil {
		return nil, err
	}
	t := stats.NewTable("Figure 8: WritersBlock events (OoO commit + WritersBlock)",
		"benchmark", "class", "blocked-writes/kstore", "uncacheable-reads/kload")
	i := 0
	for _, w := range ws {
		for _, class := range core.Classes {
			res := results[i]
			i++
			t.AddRow(w.Name, string(class),
				stats.PerMille(res.BlockedWrites, res.CommittedStores),
				stats.PerMille(res.UncacheableReads, res.CommittedLoads))
		}
	}
	return t, nil
}

// Fig9 runs Engine.Fig9 on a fresh default engine.
func Fig9(opt Options) (*stats.Table, error) { return NewEngine(0).Fig9(opt) }

// Fig9 reproduces Figure 9: the overhead of the WritersBlock protocol
// itself — execution time and network traffic of in-order commit over
// WritersBlock coherence, normalized to in-order commit over the base
// directory protocol. Values near 1.0 demonstrate "no perceptible
// overhead".
func (e *Engine) Fig9(opt Options) (*stats.Table, error) {
	ws := workload.Evaluation()
	var jobs []simJob
	for _, w := range ws {
		jobs = append(jobs,
			simJob{
				label: fmt.Sprintf("fig9 %s base", w.Name),
				w:     w,
				cfg:   figConfig(core.SLM, core.InOrderBase, opt),
				scale: opt.Scale,
			},
			simJob{
				label: fmt.Sprintf("fig9 %s wb", w.Name),
				w:     w,
				cfg:   figConfig(core.SLM, core.InOrderWB, opt),
				scale: opt.Scale,
			})
	}
	results, err := e.run(jobs)
	if err != nil {
		return nil, err
	}
	t := stats.NewTable("Figure 9: WritersBlock protocol overhead (normalized to base, in-order commit)",
		"benchmark", "exec-time", "traffic(flit-hops)")
	var times, traffic []float64
	for i, w := range ws {
		base, wb := results[2*i], results[2*i+1]
		tn := stats.Ratio(float64(wb.Cycles), float64(base.Cycles))
		fn := stats.Ratio(float64(wb.NetFlitHops), float64(base.NetFlitHops))
		times = append(times, tn)
		traffic = append(traffic, fn)
		t.AddRow(w.Name, tn, fn)
	}
	t.AddRow("geomean", stats.GeoMean(times), stats.GeoMean(traffic))
	return t, nil
}

// Fig10Stalls runs Engine.Fig10Stalls on a fresh default engine.
func Fig10Stalls(opt Options) (*stats.Table, error) { return NewEngine(0).Fig10Stalls(opt) }

// Fig10Stalls reproduces Figure 10 (top): the percentage of cycles in
// which a core could not commit a single instruction, broken down by the
// structure that was full (ROB / LQ / SQ), for the SLM-class core under
// the three commit schemes.
func (e *Engine) Fig10Stalls(opt Options) (*stats.Table, error) {
	ws := workload.Evaluation()
	variants := []core.Variant{core.InOrderBase, core.OoOBase, core.OoOWB}
	var jobs []simJob
	for _, w := range ws {
		for _, v := range variants {
			jobs = append(jobs, simJob{
				label: fmt.Sprintf("fig10 %s/%s", w.Name, v),
				w:     w,
				cfg:   figConfig(core.SLM, v, opt),
				scale: opt.Scale,
			})
		}
	}
	results, err := e.run(jobs)
	if err != nil {
		return nil, err
	}
	t := stats.NewTable("Figure 10 (top): % cycles stalled by reason (SLM-class)",
		"benchmark", "variant", "%ROB-full", "%LQ-full", "%SQ-full", "%other")
	i := 0
	for _, w := range ws {
		for _, v := range variants {
			res := results[i]
			i++
			cc := float64(res.CoreCycles)
			t.AddRow(w.Name, string(v),
				100*stats.Ratio(float64(res.StallROB), cc),
				100*stats.Ratio(float64(res.StallLQ), cc),
				100*stats.Ratio(float64(res.StallSQ), cc),
				100*stats.Ratio(float64(res.StallOther), cc))
		}
	}
	return t, nil
}

// Fig10Results holds the headline numbers of Figure 10 (bottom).
type Fig10Results struct {
	Table *stats.Table
	// Improvement of OoO+WritersBlock over in-order commit and over
	// safe OoO commit (percent, average and maximum across benchmarks).
	AvgVsInOrder float64
	MaxVsInOrder float64
	AvgVsOoO     float64
	MaxVsOoO     float64
}

// Fig10Time runs Engine.Fig10Time on a fresh default engine.
func Fig10Time(opt Options) (*Fig10Results, error) { return NewEngine(0).Fig10Time(opt) }

// Fig10Time reproduces Figure 10 (bottom): execution time of safe OoO
// commit and OoO commit + WritersBlock, normalized to in-order commit
// (SLM-class). The paper reports 15.4% average (max 41.9%) improvement
// over in-order and 10.2% average (max 28.3%) over safe OoO commit.
func (e *Engine) Fig10Time(opt Options) (*Fig10Results, error) {
	ws := workload.Evaluation()
	var jobs []simJob
	for _, w := range ws {
		jobs = append(jobs,
			simJob{
				label: fmt.Sprintf("fig10 %s inorder", w.Name),
				w:     w,
				cfg:   figConfig(core.SLM, core.InOrderBase, opt),
				scale: opt.Scale,
			},
			simJob{
				label: fmt.Sprintf("fig10 %s ooo", w.Name),
				w:     w,
				cfg:   figConfig(core.SLM, core.OoOBase, opt),
				scale: opt.Scale,
			},
			simJob{
				label: fmt.Sprintf("fig10 %s wb", w.Name),
				w:     w,
				cfg:   figConfig(core.SLM, core.OoOWB, opt),
				scale: opt.Scale,
			})
	}
	results, err := e.run(jobs)
	if err != nil {
		return nil, err
	}
	t := stats.NewTable("Figure 10 (bottom): normalized execution time (SLM-class)",
		"benchmark", "inorder", "ooo-base", "ooo-wb")
	var vsIn, vsOoO []float64
	var normOoO, normWB []float64
	for i, w := range ws {
		in, ooo, wb := results[3*i], results[3*i+1], results[3*i+2]
		nO := stats.Ratio(float64(ooo.Cycles), float64(in.Cycles))
		nW := stats.Ratio(float64(wb.Cycles), float64(in.Cycles))
		t.AddRow(w.Name, 1.0, nO, nW)
		normOoO = append(normOoO, nO)
		normWB = append(normWB, nW)
		vsIn = append(vsIn, 100*(1-nW))
		vsOoO = append(vsOoO, 100*(1-stats.Ratio(float64(wb.Cycles), float64(ooo.Cycles))))
	}
	t.AddRow("geomean", 1.0, stats.GeoMean(normOoO), stats.GeoMean(normWB))
	return &Fig10Results{
		Table:        t,
		AvgVsInOrder: stats.Mean(vsIn),
		MaxVsInOrder: stats.Max(vsIn),
		AvgVsOoO:     stats.Mean(vsOoO),
		MaxVsOoO:     stats.Max(vsOoO),
	}, nil
}

// ProtocolCompare runs Engine.ProtocolCompare on a fresh default engine.
func ProtocolCompare(opt Options) (*stats.Table, error) {
	return NewEngine(0).ProtocolCompare(opt)
}

// ProtocolCompare compares every evaluated protocol in the registry
// head-to-head (E23): execution time and network traffic of safe
// out-of-order commit over each protocol, normalized per benchmark to
// the first registered protocol (base), plus each protocol's absolute
// blocked-writes rate — WritersBlock parks writers at the directory,
// tardis parks them on lease timers, base never blocks. Registering an
// evaluated protocol adds its column block with no edits here.
func (e *Engine) ProtocolCompare(opt Options) (*stats.Table, error) {
	var specs []*core.VariantSpec
	for _, s := range core.VariantSpecs() {
		if s.Sound && s.Policy == "ooo" && s.Protocol.Evaluated {
			specs = append(specs, s)
		}
	}
	ws := workload.Evaluation()
	var jobs []simJob
	for _, w := range ws {
		for _, s := range specs {
			jobs = append(jobs, simJob{
				label: fmt.Sprintf("protocols %s/%s", w.Name, s.Protocol.Name),
				w:     w,
				cfg:   figConfig(core.SLM, s.Name, opt),
				scale: opt.Scale,
			})
		}
	}
	results, err := e.run(jobs)
	if err != nil {
		return nil, err
	}
	t := stats.NewTable("Protocol comparison: safe OoO commit over each registered protocol (normalized to "+specs[0].Protocol.Name+")",
		"benchmark", "protocol", "exec-time", "traffic(flit-hops)", "blocked-writes/kstore")
	norm := make([][]float64, len(specs)) // per protocol: exec-time normals for geomean
	traf := make([][]float64, len(specs))
	i := 0
	for _, w := range ws {
		base := results[i]
		for si, s := range specs {
			res := results[i]
			i++
			tn := stats.Ratio(float64(res.Cycles), float64(base.Cycles))
			fn := stats.Ratio(float64(res.NetFlitHops), float64(base.NetFlitHops))
			norm[si] = append(norm[si], tn)
			traf[si] = append(traf[si], fn)
			t.AddRow(w.Name, s.Protocol.Name, tn, fn,
				stats.PerMille(res.BlockedWrites, res.CommittedStores))
		}
	}
	for si, s := range specs {
		t.AddRow("geomean", s.Protocol.Name, stats.GeoMean(norm[si]), stats.GeoMean(traf[si]), 0.0)
	}
	return t, nil
}

// Squashes runs Engine.Squashes on a fresh default engine.
func Squashes(opt Options) (*stats.Table, error) { return NewEngine(0).Squashes(opt) }

// Squashes reproduces the motivational claim of Section 1: WritersBlock
// eliminates consistency squashes (invalidation- and eviction-triggered
// replays) entirely, where the squash-based baseline pays for them.
func (e *Engine) Squashes(opt Options) (*stats.Table, error) {
	ws := workload.Evaluation()
	var jobs []simJob
	for _, w := range ws {
		jobs = append(jobs,
			simJob{
				label: fmt.Sprintf("squash %s base", w.Name),
				w:     w,
				cfg:   figConfig(core.SLM, core.OoOBase, opt),
				scale: opt.Scale,
			},
			simJob{
				label: fmt.Sprintf("squash %s wb", w.Name),
				w:     w,
				cfg:   figConfig(core.SLM, core.OoOWB, opt),
				scale: opt.Scale,
			})
	}
	results, err := e.run(jobs)
	if err != nil {
		return nil, err
	}
	t := stats.NewTable("Consistency squashes per million committed instructions",
		"benchmark", "ooo-base", "ooo-wb")
	for i, w := range ws {
		base, wb := results[2*i], results[2*i+1]
		t.AddRow(w.Name,
			1000*stats.PerMille(base.SquashInv+base.SquashEvict, base.Committed),
			1000*stats.PerMille(wb.SquashInv+wb.SquashEvict, wb.Committed))
	}
	return t, nil
}
