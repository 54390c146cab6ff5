package coherence

// The composed speclint systems: every registered protocol's directory
// and core machines, with the out-of-table producers declared — the
// cores' request generation, the eviction engine's Puts, lockdown
// release, the bank's memory-fetch completion and victim evictions.
// cmd/wbsimspec and the protocol test suite run the static passes over
// exactly these systems; a finding on any of them is a shipping bug.

import (
	"wbsim/internal/coherence/speclint"
	"wbsim/internal/coherence/table"
	"wbsim/internal/network"
)

// specVNetNames is the virtual-network name space in sink order:
// request < forward < response, matching network.VNet ranks.
var specVNetNames = []string{"request", "forward", "response"}

// The shipping compositions are exactly the registered protocols:
// SpecSystems iterates the protocol registry, so registering a protocol
// adds its speclint system with no edits here. dirPreFixDelta is
// checker-only and deliberately absent.

// liveStates lists every state of a machine with at least one
// non-Impossible row — the arrival set of request traffic, which can
// find the directory in any live state (another core's transaction may
// be in flight for the same line).
func liveStates(info table.Info) []int {
	var out []int
	for s := 0; s < info.NumStates(); s++ {
		for e := 0; e < info.NumEvents(); e++ {
			if info.RowKind(s, e) != table.Impossible {
				out = append(out, s)
				break
			}
		}
	}
	return out
}

// specSystemFor builds the composed speclint system for one registered
// protocol, over the machines its banks and PCUs dispatch through.
func specSystemFor(p *Protocol) speclint.System {
	name := p.Name + "+" + p.Mode.String()
	mode := p.Mode

	dirSpont := []speclint.Spontaneous{
		// fireBankFetchDone: the memory fetch lands and the entry
		// stabilizes, replaying queued requests.
		{From: int(dirStFetching), Effects: table.Effects{
			Next: dStates(dirStInvalid), ThenRedispatch: true,
		}, Note: "memory fetch completes"},
		// startEviction (from allocateAndFetch): a stable victim moves
		// to the eviction buffer and its copies are invalidated.
		{From: int(dirStExclusive), Effects: table.Effects{
			Next:  dStates(dirStBusyEvict),
			Sends: []table.Send{toCore(pcuEvInv, table.DestOwner, pcuAllStates...)},
		}, Note: "victim eviction of an owned entry"},
	}
	if mode == ModeTardis {
		// startTsEviction: a leased victim has no sharer list to
		// invalidate; it parks in the eviction buffer until its leases
		// expire (the timer fires dirEvLeaseExpired through the table).
		dirSpont = append(dirSpont, speclint.Spontaneous{
			From: int(dirStTsShared), Effects: table.Effects{
				Next: dStates(dirStTsWaitEvict),
			}, Note: "victim eviction of a leased entry parks on the lease timer"})
	} else {
		dirSpont = append(dirSpont, speclint.Spontaneous{
			From: int(dirStShared), Effects: table.Effects{
				Next:  dStates(dirStBusyEvict),
				Sends: []table.Send{maybe(toCore(pcuEvInv, table.DestSharers, pcuAllStates...), "eviction invalidation per sharer")},
			}, Note: "victim eviction of a shared entry"})
	}
	pcuSpont := []speclint.Spontaneous{
		// The core-facing issue paths allocate MSHRs outside the table.
		{From: int(pcuStIdle), Effects: table.Effects{Next: pStates(pcuStRead)},
			Note: "load miss allocates a read MSHR"},
		{From: int(pcuStIdle), Effects: table.Effects{Next: pStates(pcuStWrite)},
			Note: "store prefetch or atomic allocates a write MSHR"},
		{From: int(pcuStWrite), Effects: table.Effects{Next: pStates(pcuStReadWrite)},
			Note: "SoS load bypasses the blocked write onto a reserved read MSHR"},
	}

	dirLive := liveStates(p.dir)
	stimuli := []speclint.Stimulus{
		{Side: table.SideDir, Event: int(dirEvRead), ArrivesIn: dirLive,
			Note: "core load issue (GetS/RetryRd)"},
		{Side: table.SideDir, Event: int(dirEvWrite), ArrivesIn: dirLive,
			Note: "store prefetch or atomic (GetX)"},
		{Side: table.SideDir, Event: int(dirEvPutOwned), ArrivesIn: dirLive,
			Note: "capacity eviction of an owned line (PutM/PutE/PutS)"},
	}
	if p.NonSilent {
		stimuli = append(stimuli, speclint.Stimulus{
			Side: table.SideDir, Event: int(dirEvPutShared), ArrivesIn: dirLive,
			Note: "non-silent shared eviction (PutSh)"})
	}
	if mode == ModeLockdown {
		stimuli = append(stimuli, speclint.Stimulus{
			Side: table.SideDir, Event: int(dirEvDelayedAck),
			ArrivesIn: dStates(dirStBusyWrite, dirStBusyEvict, dirStWBWrite, dirStWBEvict),
			Note:      "lockdown lifts (DelayedAck)"})
	}
	if mode == ModeTardis {
		stimuli = append(stimuli, speclint.Stimulus{
			Side: table.SideDir, Event: int(dirEvLeaseExpired),
			ArrivesIn: dStates(dirStTsWaitWrite, dirStTsWaitEvict),
			Note:      "lease timer fires (armed only while a write or eviction waits)"})
	}

	sys := speclint.System{
		Name:     name,
		NetNames: specVNetNames,
		Stimuli:  stimuli,
	}
	sys.Machines[table.SideDir] = speclint.MachineSpec{
		Info:        p.dir,
		EventNet:    dirEventNet[:],
		Initial:     dStates(dirStNoEntry),
		Spontaneous: dirSpont,
	}
	sys.Machines[table.SideCore] = speclint.MachineSpec{
		Info:        p.pcu,
		EventNet:    pcuEventNet[:],
		Initial:     pStates(pcuStIdle),
		Spontaneous: pcuSpont,
	}
	return sys
}

// SpecSystems returns the composed speclint systems for every
// registered protocol.
func SpecSystems() []speclint.System {
	out := make([]speclint.System, 0, len(protocols))
	for _, p := range protocols {
		out = append(out, specSystemFor(p))
	}
	return out
}

// SpecHygieneFindings runs the delta-hygiene pass over every distinct
// registered stack (and the checker-only prefix stack, which must stay
// clean so its deadlock demonstration reflects only the intended row
// changes).
func SpecHygieneFindings() []speclint.Finding {
	var fs []speclint.Finding
	for _, p := range dirOwners() {
		fs = append(fs, speclint.DeltaHygiene(dirBaseSpec(), p.dirDeltas...)...)
	}
	fs = append(fs, speclint.DeltaHygiene(dirBaseSpec(), dirPreFixDelta())...)
	for _, p := range pcuOwners() {
		fs = append(fs, speclint.DeltaHygiene(pcuBaseSpec(), p.pcuDeltas...)...)
	}
	return fs
}

// Compile-time guarantee that the declared event nets use the same rank
// space as network.VNet (request < forward < response).
var _ = [1]struct{}{}[int(network.VNetResponse)-2]
