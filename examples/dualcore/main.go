// Dualcore: the paper's Figure 4b scenario — a victim core executes
// secret-dependent instructions while an attacker core hammers the shared
// TileLink D-channel; the secret modulates the contention the attacker's
// own loads experience, so the attacker's commit timing leaks the secret.
//
//	go run ./examples/dualcore
package main

import (
	"fmt"

	"sonar"
)

func main() {
	// Two BOOM-like cores share the L2 and the TileLink D-channel.
	s := sonar.NewBoomDual()

	opt := sonar.SonarOptions(120)
	opt.DualCore = true
	opt.KeepFindings = 4
	stats := s.Fuzz(opt)

	last := stats.PerIteration[len(stats.PerIteration)-1]
	fmt.Printf("dual-core campaign: %d testcases, %d contention points triggered, %d timing differences\n",
		last.Iteration, last.CumPoints, last.CumTimingDiffs)

	if len(stats.Findings) == 0 {
		fmt.Println("no cross-core side channels surfaced at this budget — raise the iteration count")
		return
	}
	fmt.Println("\ncross-core findings (attacker- or victim-side CCD differences + contention-state diffs):")
	for i, f := range stats.Findings {
		fmt.Printf("--- finding %d ---\n%s", i+1, f.String(stats.Analysis))
		for _, comp := range f.Components(stats.Analysis) {
			if comp == "tilelink" {
				fmt.Println("    ^ the shared TileLink D-channel is implicated: the S1-S4 family")
			}
		}
	}
}
