package cpu

// LeakROBSlot takes one slot out of the core's DynInstr window without an
// instruction to free it, as a missed free would: the next time the ROB
// fills, the window underflows.
func (c *Core) LeakROBSlot() { c.dwin.take(c) }
