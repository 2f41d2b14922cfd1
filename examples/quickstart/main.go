// Quickstart: the whole Sonar pipeline in one page.
//
// It builds the BOOM-like DUT, identifies and filters contention points
// (paper §5), runs a short interval-guided fuzzing campaign (§6), and
// prints the side channels the dual-differential comparison confirms (§7).
//
//	go run ./examples/quickstart
package main

import (
	"fmt"

	"sonar"
)

func main() {
	// 1. Elaborate the DUT and run the static analysis: bottom-up MUX
	// tracing locates the contention points; the risk filter drops the
	// ones that cannot leak.
	s := sonar.NewBoom()
	fmt.Print(s.Identify())

	// 2. Fuzz with the full guidance stack: seeds that reduce the minimum
	// inter-request interval at any contention point are retained, points
	// closest to triggering are targeted, and the adaptive directed
	// mutation walks the dependency-chain length toward simultaneity.
	opt := sonar.SonarOptions(120)
	opt.KeepFindings = 5
	stats := s.Fuzz(opt)

	last := stats.PerIteration[len(stats.PerIteration)-1]
	fmt.Printf("\nafter %d testcases: %d contention points triggered, %d secret-dependent timing differences\n",
		last.Iteration, last.CumPoints, last.CumTimingDiffs)

	// 3. Each finding pairs CCD-filtered affected instructions with the
	// contention points whose states diverged under the two secrets — the
	// dual-differential report that makes root-causing fast (§8.3.5).
	for i, f := range stats.Findings {
		fmt.Printf("\nfinding %d:\n%s", i+1, f.String(stats.Analysis))
	}
}
