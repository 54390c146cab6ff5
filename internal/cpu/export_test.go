package cpu

// LeakROBSlot takes one slot out of the core's DynInstr window without an
// instruction to free it, as a missed free would: the next time the ROB
// fills, the window underflows.
func (c *Core) LeakROBSlot() { c.dwin.take(c) }

// SkewIdleCredit corrupts the recurring-counter deltas a sleeping tick
// is credited with, as a missed wake-up would: the next tick the core
// sleeps through no longer repeats the credit.
func (c *Core) SkewIdleCredit() { c.recur[0]++ }
