// Tracing: the paper's Figure 3 worked example.
//
// A FIRRTL snippet containing the cascaded MUXes behind BOOM's
// ldq_stq_idx selection is parsed, bottom-up tracing reconstructs the n:1
// contention point, and Algorithm 1 resolves each request's validity. The
// circuit is then simulated so the instrumentation records a simultaneous
// arrival (reqsIntvl = 0): a triggered volatile contention.
//
//	go run ./examples/tracing
package main

import (
	"fmt"
	"log"

	"sonar/internal/firrtl"
	"sonar/internal/monitor"
	"sonar/internal/sim"
	"sonar/internal/trace"
)

const lsuCircuit = `
circuit Lsu :
  module Lsu :
    input io_ldq_valid : UInt<1>
    input io_ldq_bits_idx : UInt<5>
    input io_stq_valid : UInt<1>
    input io_stq_bits_idx : UInt<5>
    input io_fwd_valid : UInt<1>
    input io_fwd_bits_idx : UInt<5>
    input sel_ldq : UInt<1>
    input sel_stq : UInt<1>
    output ldq_stq_idx : UInt<5>
    ldq_stq_idx <= mux(sel_ldq, io_ldq_bits_idx, mux(sel_stq, io_stq_bits_idx, io_fwd_bits_idx))
`

func main() {
	net, err := firrtl.Parse(lsuCircuit)
	if err != nil {
		log.Fatal(err)
	}

	// Bottom-up tracing: the two cascaded 2:1 MUXes collapse into one 3:1
	// contention point at ldq_stq_idx.
	analysis := trace.Analyze(net)
	fmt.Printf("%d 2:1 MUXes -> %d contention point(s)\n", analysis.NaiveMuxCount, len(analysis.Points))
	p := analysis.Points[0]
	fmt.Printf("contention point: %s (%d:1)\n", p.Out.Name(), p.Fanin())
	for i := range p.Requests {
		r := &p.Requests[i]
		fmt.Printf("  request %d: %-24s valid: %s\n", i, r.Data.Local(), r.Valids[0].Local())
	}

	// Instrument and simulate: the load-queue and store-queue requests
	// assert their valids in the same cycle — reqsIntvl reaches zero.
	mon := monitor.New(analysis, monitor.Config{})
	mon.SetWindow(true)
	s, err := sim.New(net)
	if err != nil {
		log.Fatal(err)
	}
	poke := func(name string, v uint64) {
		if err := s.Poke(name, v); err != nil {
			log.Fatal(err)
		}
	}
	poke("Lsu.io_ldq_bits_idx", 7)
	poke("Lsu.io_stq_bits_idx", 9)
	poke("Lsu.io_ldq_valid", 1)
	poke("Lsu.io_stq_valid", 1) // same cycle: simultaneous arrival
	s.Tick()

	snap := mon.Snapshot()
	ps := snap.Points[0]
	fmt.Printf("\nafter simulation: %d request arrivals, reqsIntvl = %d, volatile contention triggered: %v\n",
		ps.EventCount, ps.MinIntvlDistinct, ps.VolatileContention)
	same := "none (no request arrived twice)"
	if ps.MinIntvlSame != monitor.NoInterval {
		same = fmt.Sprint(ps.MinIntvlSame)
	}
	fmt.Printf("  same-path interval: %s\n", same)
}
