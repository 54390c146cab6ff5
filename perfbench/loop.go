package main

import (
	"fmt"
	"runtime/metrics"
	"time"

	"wbsim/internal/core"
	"wbsim/internal/faults"
	"wbsim/internal/sim"
)

// loopLayers accumulates the host time and work of the simulated cycle
// loop, split by the layer each group of calls belongs to.
type loopLayers struct {
	loop, cpu, network, bank, pcu time.Duration

	bankTicks, pcuTicks uint64
	stepped, skipped    uint64

	messages, flitHops                    uint64
	rowsFired, blockedWrites, uncacheable uint64
}

// addResults folds one finished run's exact counts in.
func (l *loopLayers) addResults(res core.Results) {
	l.messages += res.NetMessages
	l.flitHops += res.NetFlitHops
	l.blockedWrites += res.BlockedWrites
	l.uncacheable += res.UncacheableReads
	l.rowsFired += uint64(res.Coverage.Total().Fired)
}

func (l *loopLayers) add(o loopLayers) {
	l.loop += o.loop
	l.cpu += o.cpu
	l.network += o.network
	l.bank += o.bank
	l.pcu += o.pcu
	l.bankTicks += o.bankTicks
	l.pcuTicks += o.pcuTicks
	l.stepped += o.stepped
	l.skipped += o.skipped
	l.messages += o.messages
	l.flitHops += o.flitHops
	l.rowsFired += o.rowsFired
	l.blockedWrites += o.blockedWrites
	l.uncacheable += o.uncacheable
}

// report writes the loop's per-layer metrics; committed is the number
// of instructions the runs committed.
func (l *loopLayers) report(m map[string]float64, committed uint64) {
	kernel := l.loop - l.cpu - l.network - l.bank - l.pcu
	m["core.loop_s"] = l.loop.Seconds()
	m["core.kernel_s"] = kernel.Seconds()
	m["core.stepped_cycles"] = float64(l.stepped)
	m["core.skipped_cycles"] = float64(l.skipped)
	m["cpu.tick_s"] = l.cpu.Seconds()
	m["cpu.tick_share"] = ratio(l.cpu.Seconds(), l.loop.Seconds())
	m["cpu.ns_per_instr"] = ratio(float64(l.cpu.Nanoseconds()), float64(committed))
	m["network.tick_s"] = l.network.Seconds()
	m["network.tick_share"] = ratio(l.network.Seconds(), l.loop.Seconds())
	m["network.ns_per_msg"] = ratio(float64(l.network.Nanoseconds()), float64(l.messages))
	m["network.messages"] = float64(l.messages)
	m["network.flit_hops"] = float64(l.flitHops)
	m["coherence.bank_tick_s"] = l.bank.Seconds()
	m["coherence.bank_ticks"] = float64(l.bankTicks)
	m["coherence.pcu_tick_s"] = l.pcu.Seconds()
	m["coherence.pcu_ticks"] = float64(l.pcuTicks)
	m["coherence.table_rows_fired"] = float64(l.rowsFired)
	m["coherence.blocked_writes"] = float64(l.blockedWrites)
	m["coherence.uncacheable_reads"] = float64(l.uncacheable)
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// tracedRun is System.Run's sequential loop rebuilt from the machine's
// exported parts, with host time taken around each layer's calls. It
// returns exactly what System.Run returns; trace_test.go holds it to
// that.
func tracedRun(s *core.System, l *loopLayers) (cycles sim.Cycle, err error) {
	if s.Cfg.Shards > 1 {
		return 0, fmt.Errorf("perfbench: the traced loop is sequential, Shards=%d", s.Cfg.Shards)
	}
	start := time.Now()
	defer func() {
		l.loop += time.Since(start)
		if r := recover(); r != nil {
			cycles = s.Clock.Now()
			err = faults.PanicError(r, s.HangReport("panic", -1, 0))
		}
	}()
	wd := faults.NewWatchdog(s.Cfg.Watchdog, len(s.Cores))
	for !s.Done() {
		now := s.Clock.Now()
		if now >= s.Cfg.MaxCycles {
			return now, faults.HangError(s.HangReport("max-cycles", -1, 0))
		}
		if wd.Due(now) {
			if err := checkProgress(s, wd, now); err != nil {
				return now, err
			}
		}
		step(s, l)
		if !s.Cfg.CycleAccurate {
			fastForward(s, wd, l)
		}
	}
	for _, b := range s.Banks {
		b.CheckInvariants()
	}
	return s.Clock.Now(), nil
}

// step is System.Step with a clock reading around each component that
// does work; the due checks that skip idle components count as kernel
// time.
func step(s *core.System, l *loopLayers) {
	now := s.Clock.Advance()
	if at, ok := s.Mesh.NextEventCycle(); ok && at <= now {
		t := time.Now()
		s.Mesh.Tick(now)
		l.network += time.Since(t)
	}
	for _, b := range s.Banks {
		if b.EventsDue(now) {
			t := time.Now()
			b.Tick(now)
			l.bank += time.Since(t)
			l.bankTicks++
		}
	}
	for _, p := range s.PCUs {
		if p.EventsDue(now) {
			t := time.Now()
			p.Tick(now)
			l.pcu += time.Since(t)
			l.pcuTicks++
		}
	}
	t := time.Now()
	for _, c := range s.Cores {
		c.Tick(now)
	}
	l.cpu += time.Since(t)
	l.stepped++
}

// fastForward is System.fastForward: warp the clock over a provably
// inert stretch, bounded by the next event, the next watchdog check and
// MaxCycles.
func fastForward(s *core.System, wd *faults.Watchdog, l *loopLayers) {
	for _, c := range s.Cores {
		if !c.IdleStable() {
			return
		}
	}
	if s.Done() {
		return
	}
	now := s.Clock.Now()

	var target sim.Cycle
	haveEvent := false
	consider := func(at sim.Cycle, ok bool) {
		if ok && (!haveEvent || at < target) {
			haveEvent, target = true, at
		}
	}
	consider(s.Mesh.NextEventCycle())
	for _, b := range s.Banks {
		consider(b.NextEventCycle())
	}
	for _, p := range s.PCUs {
		consider(p.NextEventCycle())
	}
	for _, c := range s.Cores {
		consider(c.NextEventCycle(now))
	}

	t := s.Cfg.MaxCycles + 1
	if haveEvent && target < t {
		t = target
	}
	if wcfg := wd.Config(); !wcfg.Disable {
		due := now + (wcfg.CheckPeriod-now%wcfg.CheckPeriod)%wcfg.CheckPeriod
		if due+1 < t {
			t = due + 1
		}
	}
	if t <= now+1 {
		return
	}
	skipped := uint64(t - 1 - now)
	for _, c := range s.Cores {
		c.CreditIdle(skipped)
	}
	s.Clock.FastForwardTo(t - 1)
	l.skipped += skipped
}

// checkProgress is System.checkProgress: per-core commit watermarks on
// every check, directory transient ages on the sparser cadence.
func checkProgress(s *core.System, wd *faults.Watchdog, now sim.Cycle) error {
	scanTransients := wd.BeginCheck()
	for i, c := range s.Cores {
		if age, tripped := wd.ObserveCore(now, i, c.Done(), c.Stats.Committed); tripped {
			return faults.HangError(s.HangReport("commit-stall", i, age))
		}
	}
	if scanTransients {
		bound := wd.Config().TransientBound
		for _, b := range s.Banks {
			for _, t := range b.TransientLines(now) {
				if t.Age > bound {
					return faults.HangError(s.HangReport("transient-age", -1, 0))
				}
				break // entries are oldest-first; only the head can exceed
			}
		}
	}
	return nil
}

// heapSample is a reading of the runtime's cumulative GC and allocation
// counters.
type heapSample struct {
	gcCPU                float64
	gcCycles             uint64
	allocBytes, allocObj uint64
}

var heapMetrics = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/gc/cycles/total:gc-cycles",
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
}

func readHeap() heapSample {
	s := make([]metrics.Sample, len(heapMetrics))
	for i, n := range heapMetrics {
		s[i].Name = n
	}
	metrics.Read(s)
	return heapSample{
		gcCPU:      s[0].Value.Float64(),
		gcCycles:   s[1].Value.Uint64(),
		allocBytes: s[2].Value.Uint64(),
		allocObj:   s[3].Value.Uint64(),
	}
}

// since returns the counters' growth from h to now.
func (h heapSample) since() heapSample {
	n := readHeap()
	return heapSample{
		gcCPU:      n.gcCPU - h.gcCPU,
		gcCycles:   n.gcCycles - h.gcCycles,
		allocBytes: n.allocBytes - h.allocBytes,
		allocObj:   n.allocObj - h.allocObj,
	}
}

// report writes the GC and allocation metrics; instrs is the number of
// committed instructions the allocation is spread over (0 when the
// workload simulates none).
func (h heapSample) report(m map[string]float64, instrs uint64) {
	m["gc.cpu_s"] = h.gcCPU
	m["gc.cycles"] = float64(h.gcCycles)
	m["alloc.bytes"] = float64(h.allocBytes)
	m["alloc.objects"] = float64(h.allocObj)
	m["alloc.bytes_per_instr"] = ratio(float64(h.allocBytes), float64(instrs))
}
