package coherence

import (
	"wbsim/internal/mem"
	"wbsim/internal/network"
	"wbsim/internal/sim"
)

// simCycle keeps message helpers readable without importing sim everywhere.
type simCycle = sim.Cycle

// Params collects the latencies and message geometry shared by the
// protocol controllers (Table 6 of the paper).
type Params struct {
	L1Latency  int // private L1 hit, paper: 4
	L2Latency  int // private L2 hit, paper: 12
	LLCLatency int // shared LLC bank data access, paper: 35
	TagLatency int // control-only directory/tag access
	MemLatency int // memory access, paper: 160

	DataFlits int // network flits for data messages, paper: 5
	CtrlFlits int // network flits for control messages, paper: 1

	// LLCLines/LLCWays size one LLC bank (which also bounds the
	// directory slice, as the directory is embedded in the inclusive LLC).
	LLCLines int
	LLCWays  int
	// L2Lines/L2Ways size the private cache unit's coherence point;
	// L1Lines/L1Ways size the L1 presence filter inside it.
	L2Lines int
	L2Ways  int
	L1Lines int
	L1Ways  int

	// NonSilentSharedEvictions asks for the non-silent flavor of the
	// variant's protocol: shared-line evictions notify the directory
	// (PutSh) instead of staying silent. The paper's baseline uses
	// silent evictions, citing ~9.6% lower traffic (Section 3.8); this
	// option exists to reproduce that comparison. It is a protocol
	// selector, not a controller setting: core.NewSystem resolves it to
	// a registered protocol (base → base-ns, wb → wb-ns) and the
	// controllers read Protocol.NonSilent. Under lockdown mode, an
	// eviction whose line has a lockdown stays silent either way, so a
	// future writer's invalidation still reaches the core.
	NonSilentSharedEvictions bool

	MSHRs         int // private cache unit MSHRs
	ReservedMSHRs int // MSHRs reserved for SoS loads (Section 3.5.2)
	EvictionBuf   int // directory eviction buffer entries (Section 3.5.1)

	// TardisLease is the read-lease span, in cycles, granted by the
	// timestamp-coherence (tardis) protocol: a shared copy self-expires
	// this many cycles after the directory stamps the grant, and a write
	// to a leased line waits until every outstanding lease has expired
	// instead of invalidating sharers. Larger leases amortize re-reads
	// of read-mostly lines; smaller leases bound how long a write parks.
	// Only the tardis protocol reads it.
	TardisLease int
}

// DefaultParams returns the paper's memory-system configuration.
func DefaultParams() Params {
	return Params{
		L1Latency:     4,
		L2Latency:     12,
		LLCLatency:    35,
		TagLatency:    2,
		MemLatency:    160,
		DataFlits:     5,
		CtrlFlits:     1,
		LLCLines:      1 << 20 / mem.LineBytes, // 1MB per bank
		LLCWays:       8,
		L2Lines:       128 << 10 / mem.LineBytes, // 128KB
		L2Ways:        8,
		L1Lines:       32 << 10 / mem.LineBytes, // 32KB
		L1Ways:        8,
		MSHRs:         16,
		ReservedMSHRs: 2,
		EvictionBuf:   16,
		TardisLease:   200,
	}
}

// HomeFunc maps a line to the endpoint of its home LLC bank/directory
// slice. The default system interleaves lines across banks.
type HomeFunc func(mem.Line) network.Endpoint

// Mode selects how a core reacts when an invalidation hits a reordered
// (M-speculative) load.
type Mode int

const (
	// ModeSquash is the baseline: the matching M-speculative load and
	// everything younger are squashed and re-executed; the invalidation
	// is acknowledged immediately.
	ModeSquash Mode = iota
	// ModeLockdown is the paper's mechanism: the load stays bound, the
	// acknowledgement is withheld (Nack to the directory, DelayedAck
	// when the lockdown lifts), and the directory hides the reordering
	// in the WritersBlock state.
	ModeLockdown
	// ModeTardis is the timestamp-coherence protocol (Tardis 2.0-style):
	// reads take time-bounded leases instead of joining a sharer list,
	// writes to leased lines wait for the leases to expire instead of
	// invalidating, and shared copies self-downgrade on lease expiry. No
	// invalidation ever reaches an M-speculative load; lease expiry is
	// the squash signal.
	ModeTardis
)

// String names the mode.
func (m Mode) String() string {
	switch m {
	case ModeSquash:
		return "squash"
	case ModeLockdown:
		return "lockdown"
	case ModeTardis:
		return "tardis"
	}
	return "mode?"
}
