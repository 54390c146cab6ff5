package coherence

import (
	"testing"

	"wbsim/internal/mem"
)

// BenchmarkDirDispatch measures the directory/PCU message-dispatch hot
// path end to end: a write-invalidate / 3-hop-read ping-pong over a warm
// working set, so every iteration crosses the bank's GetX/GetS/Unblock
// handling and the PCU's Inv/FwdGetS/FwdGetX/Data handling.
func BenchmarkDirDispatch(b *testing.B) {
	benchDispatchPingPong(b, newRig(b, 4, testParams()))
}

// benchDispatchPingPong times the shared write-invalidate / 3-hop-read
// workload of newPingPong.
func benchDispatchPingPong(b *testing.B, r *rig) {
	step := newPingPong(r)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step(i)
	}
}

// newPingPong warms the working set, so measured iterations cross the
// sharing paths, and returns iteration i of the ping-pong: one core
// writes a line, the next core reads it back.
func newPingPong(r *rig) func(i int) {
	addrs := make([]mem.Addr, 8)
	for i := range addrs {
		addrs[i] = mem.Addr((i + 1) * 0x1000)
		r.memory.WriteWord(addrs[i], 1)
	}
	// Warm: every core reads every line once, so measured iterations
	// exercise invalidations and owner forwards rather than cold fetches.
	tok := uint64(1)
	for _, a := range addrs {
		for c := range r.pcus {
			r.pcus[c].Load(r.now(), tok, a, true)
			tok++
			r.settle()
		}
	}
	return func(i int) {
		a := addrs[i%len(addrs)]
		w := r.pcus[i%len(r.pcus)]
		for !w.StoreWrite(r.now(), a, mem.Word(i)) {
			r.settle()
		}
		r.pcus[(i+1)%len(r.pcus)].Load(r.now(), tok, a, true)
		tok++
		r.settle()
	}
}

// BenchmarkDirDispatchProtocols runs the ping-pong workload once per
// registered protocol, so a newly registered protocol gets a dispatch
// cost row with no benchmark edits. Note tardis ns/op includes the
// cycles spent waiting out read leases — that wait is the protocol's
// write cost, not harness overhead.
func BenchmarkDirDispatchProtocols(b *testing.B) {
	for _, proto := range Protocols() {
		b.Run(proto.Name, func(b *testing.B) {
			benchDispatchPingPong(b, newRigProto(b, 4, testParams(), proto))
		})
	}
}

// dispatchAllocs is the exact allocation count of one ping-pong
// iteration per registered protocol. Tardis never invalidates shared copies
// (its writes wait out read leases), so it allocates less.
var dispatchAllocs = map[string]float64{
	"base": 31, "base-ns": 31, "wb": 31, "wb-ns": 31, "tardis": 25,
}

// TestDispatchAllocs pins the allocations of the dispatch hot path: one
// ping-pong iteration per registered protocol must allocate exactly its
// dispatchAllocs count. A rise is new garbage on every coherence
// message; a fall should be pinned here so it stays.
func TestDispatchAllocs(t *testing.T) {
	for _, proto := range Protocols() {
		t.Run(proto.Name, func(t *testing.T) {
			want, ok := dispatchAllocs[proto.Name]
			if !ok {
				t.Fatalf("no pinned allocation count for protocol %q", proto.Name)
			}
			step := newPingPong(newRigProto(t, 4, testParams(), proto))
			i := 0
			got := testing.AllocsPerRun(200, func() {
				step(i)
				i++
			})
			if got != want {
				t.Errorf("ping-pong iteration allocates %.0f objects, want %.0f", got, want)
			}
		})
	}
}

// BenchmarkDirDispatchWB measures the WritersBlock choreography: each
// iteration blocks a write on a lockdown (Nack, WB entry), serves a
// concurrent read a tear-off, then lifts the lockdown (DelayedAck,
// RedirAck, Unblock) — the Figure 3.B/4 hot path.
func BenchmarkDirDispatchWB(b *testing.B) {
	r := newRig(b, 3, testParams())
	addr := mem.Addr(0x5000)
	line := mem.LineOf(addr)
	r.memory.WriteWord(addr, 1)
	tok := uint64(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.pcus[1].Load(r.now(), tok, addr, true)
		tok++
		r.settle()
		r.cores[1].lockLines[line] = true
		r.pcus[0].StoreWrite(r.now(), addr, mem.Word(i))
		r.run(400)
		r.pcus[2].Load(r.now(), tok, addr, true)
		tok++
		r.run(400)
		r.cores[1].lift(r.now(), line)
		r.settle()
		for !r.pcus[0].StoreWrite(r.now(), addr, mem.Word(i)) {
			r.settle()
		}
	}
}
