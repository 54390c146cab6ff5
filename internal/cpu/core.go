package cpu

import (
	"fmt"

	"wbsim/internal/coherence"
	"wbsim/internal/isa"
	"wbsim/internal/mem"
	"wbsim/internal/sim"
)

// Core is one simulated out-of-order core. It owns the front end
// (predicted-path fetch), the scheduler, the ROB/LQ/SQ/SB/LDT, and the
// commit policy, and talks to its private cache unit (coherence.PCU) for
// all memory traffic. It implements coherence.CoreHooks.
type Core struct {
	ID      int
	cfg     Config
	program *isa.Program
	pcu     *coherence.PCU
	pred    *Predictor
	events  coreEvents

	// Front end.
	fetchPC         int
	fetchStallUntil sim.Cycle
	fetchHalted     bool
	halted          bool

	// Rename-lite register state.
	regProd   [isa.NumRegs]*DynInstr
	archRegs  [isa.NumRegs]mem.Word
	archSeq   [isa.NumRegs]uint64
	archValid [isa.NumRegs]bool // written at least once (seq 0 ambiguity guard)

	nextSeq   uint64
	rob       []*DynInstr
	robHead   int // consumed prefix of rob (ring-style, backing array reused)
	lq        []*lqEntry
	sq        []*sqEntry
	sb        []sbEntry
	sbHead    int // consumed prefix of sb (ring-style, backing array reused)
	ldt       []ldtEntry
	readyQ    []instrRef
	readyHead int // consumed prefix of readyQ (ring-style, backing array reused)
	iqCount   int

	// The instruction window: dynamic instructions and LQ/SQ entries live
	// in fixed pools allocated in NewCore and recycled on commit or
	// squash. Squashes do not rewind seq and loads commit from mid-ROB, so
	// live seqs can span more than ROBSize and a slot is not seq%ROBSize:
	// a slot's generation is its occupant's seq, checked by every
	// reference that can outlive it (instrRef, the PCU token).
	dwin  window[DynInstr]
	lqwin window[lqEntry]
	sqwin window[sqEntry]

	// seenLines records cache lines for which an invalidation hit a
	// lockdown (the union of the per-entry S bits of the paper); the
	// delayed Ack is sent when the last lockdown for the line lifts.
	seenLines []mem.Line

	// dispatch-block reason for this cycle's stall accounting.
	blockReason string

	// Idle-skip and sleep bookkeeping (see Tick and core.System
	// fast-forward). inert records that the last executed tick provably
	// changed nothing but the cycle counter and per-cycle stall/polling
	// counters; recur holds that tick's deltas of the recurring counters
	// (MemDepWait, LDTFullStalls, PCU Loads, PCU LoadMisses) and recurOK
	// that they matched the previous tick's — the steady-state signature
	// that makes crediting skipped cycles exact. stallKind persists the
	// accountStall bucket so skipped cycles charge the same stall reason
	// a real tick would have.
	inert     bool
	recur     [4]uint64
	recurOK   bool
	stallKind uint8
	// handed counts LQ entries handed to the PCU to wait on it (a load
	// left pending, an atomic let go): state changes that fire, schedule
	// and move nothing else, yet change which loads the next tick
	// presents.
	handed uint64

	// Event-driven commit (see commit). rescan is set by every change to
	// an input of the commit decision and cleared by a scan that commits
	// nothing; idleLDTStalls is the LDT-full stall count of that scan,
	// replayed on each skipped cycle. checkSkip (cycle-accurate stepping)
	// scans every cycle and checks the cycles the skip would elide.
	rescan        bool
	idleLDTStalls uint64
	checkSkip     bool

	Stats Stats
	now   sim.Cycle
}

// NewCore builds a core running program under the given configuration.
func NewCore(id int, cfg Config, program *isa.Program) *Core {
	cfg.Validate()
	c := &Core{
		ID:      id,
		cfg:     cfg,
		program: program,
		pred:    NewPredictor(12),
		rob:     make([]*DynInstr, 0, cfg.ROBSize),
		ldt:     make([]ldtEntry, cfg.LDTSize),
		dwin:    newWindow[DynInstr]("rob", cfg.ROBSize),
		lqwin:   newWindow[lqEntry]("lq", cfg.LQSize),
		sqwin:   newWindow[sqEntry]("sq", cfg.SQSize),
		nextSeq: 1, // seq 0 reserved (fwdSeq sentinel, free window slot)
		rescan:  true,
	}
	for i := range c.lqwin.slots {
		c.lqwin.slots[i].slot = uint64(i)
	}
	return c
}

// SetCycleAccurate makes commit scan the ROB on every cycle instead of
// only after a change to one of its inputs, and the core execute every
// tick it would have slept through; each panics (*CommitSkipError,
// *SleepError) on any cycle where the skip would have diverged from the
// executed work. Simulated outcomes are identical either way.
func (c *Core) SetCycleAccurate(on bool) { c.checkSkip = on }

// AttachPCU wires the private cache unit (built after the core because
// the PCU needs the core as its hooks receiver).
func (c *Core) AttachPCU(p *coherence.PCU) { c.pcu = p }

// Halted reports whether the program has committed its halt.
func (c *Core) Halted() bool { return c.halted }

// Done reports whether the core has fully drained: halted, with an empty
// store buffer and no in-flight memory transactions.
func (c *Core) Done() bool {
	return c.halted && c.sbLen() == 0 && c.pcu.Quiescent() && c.events.empty()
}

// Reg returns the architectural value of a register (for litmus results;
// valid once the core is halted).
func (c *Core) Reg(r isa.Reg) mem.Word {
	if r == isa.R0 {
		return 0
	}
	return c.archRegs[r]
}

// Stall buckets persisted by accountStall for idle crediting.
const (
	stallNone = iota
	stallROB
	stallLQ
	stallSQ
	stallOther
)

// Tick advances the core by one cycle. The PCU is ticked separately by
// the system (delivering memory responses before the core's pipeline
// stages run).
//
// A core whose last executed tick was idle-stable sleeps: until one of
// the inputs that tick read changes, every tick is an exact repeat, so
// it is credited (CreditIdle(1)) instead of executed. The inputs are the
// core's own state (changed only by its events and its fetch re-enable)
// and its PCU's (changed only when the PCU is entered — every PCU touch
// of the cycle precedes the core's tick). Under cycle-accurate stepping
// a tick that would have slept runs in full and is checked against the
// credit (SleepError).
func (c *Core) Tick(now sim.Cycle) {
	c.now = now
	if !c.asleep(now) {
		c.tick(now)
		return
	}
	if !c.checkSkip {
		c.CreditIdle(1)
		return
	}
	c.checkSleep(now)
}

// asleep reports whether the tick at now would repeat the last one: it
// was idle-stable, no event of the core's falls due, fetch does not
// re-enable, and the PCU has not been entered this cycle.
func (c *Core) asleep(now sim.Cycle) bool {
	if !c.inert || !c.recurOK || c.pcu.EnteredAt(now) {
		return false
	}
	if at, ok := c.events.nextAt(); ok && at <= now {
		return false
	}
	return c.halted || c.fetchHalted || c.fetchStallUntil != now
}

// checkSleep runs a tick the core would have slept through and panics
// with a *SleepError unless it matches the credit exactly: the same
// counters, and still idle-stable with the same stall bucket.
func (c *Core) checkSleep(now sim.Cycle) {
	stats, pcuStats, kind := c.Stats, c.pcu.Stats, c.stallKind
	c.CreditIdle(1)
	want, wantPCU := c.Stats, c.pcu.Stats
	c.Stats, c.pcu.Stats = stats, pcuStats
	c.tick(now)
	switch {
	case c.Stats != want:
		panic(&SleepError{Core: c.ID, Cycle: now, What: fmt.Sprintf("core stats %+v, credit %+v", c.Stats, want)})
	case c.pcu.Stats != wantPCU:
		panic(&SleepError{Core: c.ID, Cycle: now, What: fmt.Sprintf("PCU stats %+v, credit %+v", c.pcu.Stats, wantPCU)})
	case !c.IdleStable() || c.stallKind != kind:
		panic(&SleepError{Core: c.ID, Cycle: now, What: "the tick was not an idle-stable repeat"})
	}
}

// SleepError is the cycle-accurate oracle's report that a tick the core
// would have slept through — its last tick idle-stable, no own event
// due, no fetch re-enable, its PCU not entered — did something the
// credit would not have: a wake condition is missing.
type SleepError struct {
	Core  int
	Cycle sim.Cycle
	What  string
}

func (e *SleepError) Error() string {
	return fmt.Sprintf("cpu %d: sleep diverges at cycle %d: %s", e.Core, e.Cycle, e.What)
}

// tick executes one cycle of the pipeline.
func (c *Core) tick(now sim.Cycle) {
	c.Stats.Cycles++

	// Snapshot everything a state-changing tick must disturb. Any
	// mutation that matters for future behaviour either fires or
	// schedules an event, commits, moves a queue boundary, fetches, or
	// squashes; pure polling failures only bump the recurring counters
	// snapshot below.
	preFetched := c.Stats.Fetched
	preSquashed := c.Stats.Squashed
	preSB := c.sbLen()
	preReady := c.readyLen()
	preEvSeq := c.events.seq
	preHanded := c.handed
	preRecur := [4]uint64{c.Stats.MemDepWait, c.Stats.LDTFullStalls,
		c.pcu.Stats.Loads, c.pcu.Stats.LoadMisses}

	fired := c.events.run(c, now)
	committed := c.commit()
	c.drainSB()
	c.issue()
	c.tryMemoryIssue()
	c.blockReason = ""
	c.fetch()
	c.accountStall(committed)

	recur := [4]uint64{c.Stats.MemDepWait - preRecur[0], c.Stats.LDTFullStalls - preRecur[1],
		c.pcu.Stats.Loads - preRecur[2], c.pcu.Stats.LoadMisses - preRecur[3]}
	c.inert = fired == 0 && committed == 0 &&
		c.sbLen() == preSB && c.readyLen() == preReady &&
		c.events.seq == preEvSeq && c.handed == preHanded &&
		c.Stats.Fetched == preFetched && c.Stats.Squashed == preSquashed
	c.recurOK = recur == c.recur
	c.recur = recur
}

func (c *Core) accountStall(committed int) {
	if committed > 0 || c.halted {
		c.stallKind = stallNone
		return
	}
	switch c.blockReason {
	case "rob":
		c.Stats.StallROB++
		c.stallKind = stallROB
	case "lq":
		c.Stats.StallLQ++
		c.stallKind = stallLQ
	case "sq", "sb":
		c.Stats.StallSQ++
		c.stallKind = stallSQ
	default:
		c.Stats.StallOther++
		c.stallKind = stallOther
	}
}

// readyLen is the number of un-issued entries in the ready queue.
func (c *Core) readyLen() int { return len(c.readyQ) - c.readyHead }

// robLen is the number of in-flight ROB entries.
func (c *Core) robLen() int { return len(c.rob) - c.robHead }

// sbLen is the number of undrained store-buffer entries.
func (c *Core) sbLen() int { return len(c.sb) - c.sbHead }

// IdleStable reports whether the last executed tick was inert — no event
// fired or was scheduled, nothing committed, fetched, issued, squashed,
// moved through the store buffer, or was handed to the PCU to wait on it
// — AND its recurring-counter deltas matched the tick before (so the
// core is past any one-shot transition such as registering a miss
// waiter). Until something changes one of that tick's inputs, the
// core's ticks are exact repeats of it: Tick sleeps through them while
// its own events, its fetch re-enable and its PCU stay quiet, and while
// every core is idle-stable and no component has work due, the
// scheduler credits whole stretches of them at once. A slept tick
// leaves the core idle-stable.
func (c *Core) IdleStable() bool { return c.inert && c.recurOK }

// NextEventCycle returns the earliest future cycle at which this core can
// act spontaneously (scheduled event or fetch re-enable). ok is false if
// the core has no self-scheduled wake-up (it may still be woken by a
// message). now is the cycle of the tick that just ran.
func (c *Core) NextEventCycle(now sim.Cycle) (at sim.Cycle, ok bool) {
	at, ok = c.events.nextAt()
	if !c.halted && !c.fetchHalted && c.fetchStallUntil > now {
		if !ok || c.fetchStallUntil < at {
			at, ok = c.fetchStallUntil, true
		}
	}
	return at, ok
}

// CreditIdle accounts n skipped cycles as if they had been executed: the
// cycle counter, the persisted stall bucket, and the recurring per-cycle
// counters (including the PCU's polling counters) advance exactly as n
// inert ticks would have advanced them.
func (c *Core) CreditIdle(n uint64) {
	c.Stats.Cycles += n
	switch c.stallKind {
	case stallROB:
		c.Stats.StallROB += n
	case stallLQ:
		c.Stats.StallLQ += n
	case stallSQ:
		c.Stats.StallSQ += n
	case stallOther:
		c.Stats.StallOther += n
	}
	c.Stats.MemDepWait += n * c.recur[0]
	c.Stats.LDTFullStalls += n * c.recur[1]
	c.pcu.Stats.Loads += n * c.recur[2]
	c.pcu.Stats.LoadMisses += n * c.recur[3]
}

// ---------------------------------------------------------------------
// Fetch and dispatch
// ---------------------------------------------------------------------

func (c *Core) fetch() {
	if c.halted || c.fetchHalted || c.now < c.fetchStallUntil {
		return
	}
	for i := 0; i < c.cfg.FetchWidth; i++ {
		si := c.program.At(c.fetchPC)
		if c.robLen() >= c.cfg.ROBSize {
			c.blockReason = "rob"
			return
		}
		if c.iqCount >= c.cfg.IQSize {
			if c.blockReason == "" {
				c.blockReason = "iq"
			}
			return
		}
		//wbsim:partial(OpNop, OpALU, OpStore, OpBranch, OpJump, OpHalt) -- only LQ-allocating ops are gated here; stores are gated just below
		switch si.Op {
		case isa.OpLoad, isa.OpAtomic:
			if len(c.lq) >= c.cfg.LQSize {
				c.blockReason = "lq"
				return
			}
		}
		if si.Op == isa.OpStore {
			if len(c.sq) >= c.cfg.SQSize {
				c.blockReason = "sq"
				return
			}
		}
		d := c.dispatch(si, c.fetchPC)
		c.Stats.Fetched++
		//wbsim:partial -- only control-flow ops redirect the PC; everything else falls through to PC+1
		switch si.Op {
		case isa.OpHalt:
			c.fetchHalted = true
			return
		case isa.OpJump:
			c.fetchPC = si.Target
			return // redirect consumes the rest of the fetch group
		case isa.OpBranch:
			d.histAt = c.pred.History()
			d.predTaken = c.pred.Predict(c.fetchPC)
			if d.predTaken {
				c.fetchPC = si.Target
			} else {
				c.fetchPC++
			}
			return
		default:
			c.fetchPC++
		}
	}
}

// push appends x to the head-indexed queue q[*head:], sliding the live
// entries to the front instead of growing q when its backing array is
// full: a queue that never drains keeps its capacity.
func push[T any](q []T, head *int, x T) []T {
	if len(q) == cap(q) && *head > 0 {
		q = q[:copy(q, q[*head:])]
		*head = 0
	}
	return append(q, x)
}

// dispatch takes a window slot for the dynamic instruction, wires its
// dependencies, and places it in the ROB (and LQ/SQ for memory
// operations).
func (c *Core) dispatch(si *isa.Instr, pc int) *DynInstr {
	d := c.dwin.take(c)
	*d = DynInstr{seq: c.nextSeq, pc: pc, si: si, op: si.Op}
	d.waiters = d.waitersBuf[:0]
	c.nextSeq++
	c.rob = push(c.rob, &c.robHead, d)
	c.iqCount++

	// Source 1 gates issue for every op that reads it.
	needSrc1 := si.Op == isa.OpALU || si.Op == isa.OpLoad || si.Op == isa.OpStore ||
		si.Op == isa.OpBranch || si.Op == isa.OpAtomic
	// Source 2 gates issue for ALU/branch/atomic; for stores it is the
	// data operand, tracked separately so address generation can proceed.
	needSrc2 := (si.Op == isa.OpALU || si.Op == isa.OpBranch) && !si.UseImm || si.Op == isa.OpAtomic

	if needSrc1 {
		c.wireOperand(d, si.Src1, 1, true)
	}
	if needSrc2 {
		c.wireOperand(d, si.Src2, 2, true)
	}
	if si.Op == isa.OpStore {
		c.wireOperand(d, si.Src2, 2, false)
	}
	// Register this instruction as the newest producer of its
	// destination (after operand wiring, so a same-register source reads
	// the previous producer).
	if d.writesReg() {
		c.regProd[si.Dst] = d
	}

	//wbsim:partial(OpNop, OpALU, OpBranch, OpJump, OpHalt) -- non-memory ops allocate no LSQ entries
	switch si.Op {
	case isa.OpLoad, isa.OpAtomic:
		e := c.lqwin.take(c)
		*e = lqEntry{d: d, seq: d.seq, slot: e.slot, isAtomic: si.Op == isa.OpAtomic}
		d.lq = e
		c.lq = append(c.lq, e)
	case isa.OpStore:
		e := c.sqwin.take(c)
		*e = sqEntry{d: d, seq: d.seq}
		d.sq = e
		c.sq = append(c.sq, e)
		if d.dataPending {
			// value captured later via produceDone
		} else {
			e.value = d.src2Val
			e.valueValid = true
		}
	}

	if d.pendingIssue == 0 {
		c.makeReady(d)
	}
	return d
}

// wireOperand resolves one register operand: from the zero register, the
// architectural file, a completed producer, or a pending producer (which
// registers d as a waiter). gate indicates the operand gates issue.
func (c *Core) wireOperand(d *DynInstr, r isa.Reg, which int, gate bool) {
	var val mem.Word
	var prod *DynInstr
	if r != isa.R0 {
		if p := c.regProd[r]; p != nil {
			if p.state == stCompleted {
				val = p.result
			} else {
				prod = p
			}
		} else {
			val = c.archRegs[r]
		}
	}
	if prod != nil {
		prod.waiters = append(prod.waiters, ref(d))
		if which == 1 {
			d.src1Prod = prod
		} else {
			d.src2Prod = prod
		}
		if gate {
			d.pendingIssue++
		} else {
			d.dataPending = true
		}
		return
	}
	if which == 1 {
		d.src1Val = val
	} else {
		d.src2Val = val
	}
}

// makeReady queues d for issue.
func (c *Core) makeReady(d *DynInstr) {
	d.state = stReady
	c.readyQ = push(c.readyQ, &c.readyHead, ref(d))
}

// produceDone is called when a producer completes, delivering its value
// to the live waiter d.
func (c *Core) produceDone(d, prod *DynInstr) {
	if d.src1Prod == prod {
		d.src1Prod = nil
		d.src1Val = prod.result
		d.pendingIssue--
	}
	if d.src2Prod == prod {
		d.src2Prod = nil
		d.src2Val = prod.result
		if d.op == isa.OpStore {
			d.dataPending = false
			if d.sq != nil {
				d.sq.value = d.src2Val
				d.sq.valueValid = true
				c.maybeCompleteStore(d)
			}
		} else {
			d.pendingIssue--
		}
	}
	if d.state == stDispatched && d.pendingIssue == 0 {
		c.makeReady(d)
	}
}

// ---------------------------------------------------------------------
// Issue and execute
// ---------------------------------------------------------------------

func (c *Core) issue() {
	issued := 0
	for issued < c.cfg.IssueWidth && c.readyHead < len(c.readyQ) {
		r := c.readyQ[c.readyHead]
		c.readyHead++
		d := r.d
		if !r.live() || d.state != stReady {
			continue
		}
		d.state = stIssued
		c.iqCount--
		issued++
		c.execute(d)
	}
	// Rewind the ring when drained so the backing array is reused
	// (consuming via [1:] re-slicing forced an allocation per refill).
	if c.readyHead == len(c.readyQ) {
		c.readyQ = c.readyQ[:0]
		c.readyHead = 0
	}
}

// execute starts execution of an issued instruction.
func (c *Core) execute(d *DynInstr) {
	switch d.op {
	case isa.OpNop, isa.OpHalt:
		c.events.after(c.now, 1, evComplete, d, 0)
	case isa.OpJump:
		d.resolved = true
		c.rescan = true
		c.events.after(c.now, 1, evComplete, d, 0)
	case isa.OpALU:
		lat := c.cfg.ALULatency
		if d.si.Latency > 0 {
			lat = d.si.Latency
		}
		b := d.src2Val
		if d.si.UseImm {
			b = d.si.Imm
		}
		res := isa.EvalALU(d.si.Fn, d.src1Val, b)
		c.events.after(c.now, sim.Cycle(lat), evComplete, d, res)
	case isa.OpBranch:
		c.events.after(c.now, 1, evBranch, d, 0)
	case isa.OpLoad, isa.OpAtomic:
		d.lq.addr = mem.AlignWord(mem.Addr(d.src1Val + d.si.Imm))
		d.lq.line = mem.LineOf(d.lq.addr)
		d.lq.addrValid = true
		// Memory issue is attempted by tryMemoryIssue (this cycle too).
	case isa.OpStore:
		d.sq.addr = mem.AlignWord(mem.Addr(d.src1Val + d.si.Imm))
		d.sq.line = mem.LineOf(d.sq.addr)
		d.sq.addrValid = true
		c.rescan = true
		c.memDepCheck(d.sq)
		if !d.sq.prefetched {
			d.sq.prefetched = true
			c.pcu.StorePrefetch(c.now, d.sq.line)
		}
		c.maybeCompleteStore(d)
	default:
		panic(fmt.Sprintf("cpu: issue of %v", d.si.Op))
	}
}

// maybeCompleteStore completes a store once both its address and data are
// known (completion makes it commit-eligible; it performs later from the
// store buffer).
func (c *Core) maybeCompleteStore(d *DynInstr) {
	if d.state != stIssued {
		return
	}
	if d.sq.addrValid && d.sq.valueValid {
		c.events.after(c.now, 1, evComplete, d, 0)
	}
}

// complete finishes execution: the result becomes available and
// dependents wake.
func (c *Core) complete(d *DynInstr, result mem.Word) {
	if d.state == stCompleted {
		return
	}
	d.state = stCompleted
	c.rescan = true
	d.result = result
	for _, w := range d.waiters {
		if w.live() {
			c.produceDone(w.d, d)
		}
	}
	d.waiters = nil
}

// resolveBranch evaluates the branch, trains the predictor, and squashes
// on a misprediction.
func (c *Core) resolveBranch(d *DynInstr) {
	b := d.src2Val
	if d.si.UseImm {
		b = d.si.Imm
	}
	taken := isa.EvalCond(d.si.Fn, d.src1Val, b)
	d.resolved = true
	c.rescan = true
	c.pred.Train(d.pc, d.histAt, taken)
	c.complete(d, 0)
	if taken != d.predTaken {
		c.Stats.SquashBranch++
		c.pred.Restore(d.histAt, taken)
		target := d.pc + 1
		if taken {
			target = d.si.Target
		}
		c.squashFrom(d.seq+1, target, c.cfg.MispredictPenalty)
	}
}

// ---------------------------------------------------------------------
// Squash
// ---------------------------------------------------------------------

// squashFrom removes every instruction with seq >= cut from the pipeline,
// redirects fetch to pc, and stalls the front end for penalty cycles.
func (c *Core) squashFrom(cut uint64, pc int, penalty int) {
	// Find the ROB boundary.
	idx := len(c.rob)
	for i := c.robHead; i < len(c.rob); i++ {
		if c.rob[i].seq >= cut {
			idx = i
			break
		}
	}
	if idx == len(c.rob) {
		// Nothing younger in flight; just redirect.
		c.fetchPC = pc
		c.fetchStallUntil = c.now + sim.Cycle(penalty)
		c.fetchHalted = false
		return
	}

	// Collect LDT responsibilities held by squashed loads; they must
	// survive on an older non-performed load (or be released if every
	// older load has performed) — Section 4.2. Squashed instructions and
	// their LQ/SQ entries, the young ends of the LQ and SQ, free their
	// window slots.
	c.lq = trimLQ(c.lq, cut)
	c.sq = trimSQ(c.sq, cut)
	var orphanMask uint64
	for _, d := range c.rob[idx:] {
		c.Stats.Squashed++
		if d.state == stDispatched || d.state == stReady {
			c.iqCount--
		}
		if e := d.lq; e != nil {
			orphanMask |= e.ldtMask
			c.lqwin.give(c, e, &e.seq)
		}
		if e := d.sq; e != nil {
			c.sqwin.give(c, e, &e.seq)
		}
		c.dwin.give(c, d, &d.seq)
	}
	c.rob = c.rob[:idx]
	c.rescan = true
	if len(c.rob) == c.robHead {
		c.rob = c.rob[:0]
		c.robHead = 0
	}

	// Reassign orphaned LDT responsibilities.
	if orphanMask != 0 {
		if holder := c.youngestNonPerformed(); holder != nil {
			holder.ldtMask |= orphanMask
		} else {
			c.releaseMask(orphanMask)
		}
	}

	// Rebuild the register producer table from surviving instructions.
	c.regProd = [isa.NumRegs]*DynInstr{}
	for _, d := range c.rob[c.robHead:] {
		if d.writesReg() && c.newerThanArch(d.si.Dst, d.seq) {
			c.regProd[d.si.Dst] = d
		}
	}

	c.fetchPC = pc
	c.fetchStallUntil = c.now + sim.Cycle(penalty)
	c.fetchHalted = false
	c.onOrderingChange()
}

// newerThanArch reports whether seq is younger than the last committed
// writer of register r.
func (c *Core) newerThanArch(r isa.Reg, seq uint64) bool {
	return !c.archValid[r] || seq > c.archSeq[r]
}

func trimLQ(entries []*lqEntry, cut uint64) []*lqEntry {
	for i, e := range entries {
		if e.seq >= cut {
			return entries[:i]
		}
	}
	return entries
}

func trimSQ(entries []*sqEntry, cut uint64) []*sqEntry {
	for i, e := range entries {
		if e.seq >= cut {
			return entries[:i]
		}
	}
	return entries
}

// youngestNonPerformed returns the youngest LQ entry that has not yet
// performed, or nil.
func (c *Core) youngestNonPerformed() *lqEntry {
	for i := len(c.lq) - 1; i >= 0; i-- {
		if !c.lq[i].performed {
			return c.lq[i]
		}
	}
	return nil
}
