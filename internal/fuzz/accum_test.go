package fuzz

import (
	"testing"

	"sonar/internal/detect"
	"sonar/internal/isa"
	"sonar/internal/uarch"
)

// statsAccum edge cases: the fold is shared by local and leased campaigns,
// so these pin the exact semantics the round barrier relies on.

// A finding without any newly triggered point (the contention was already
// known from an earlier iteration) must advance the timing-diff series but
// not the coverage series.
func TestApplyFindingWithoutNewPoint(t *testing.T) {
	d := liteFactory()
	acc := newStatsAccum(d.Analysis, SonarOptions(10))
	acc.apply(&outcome{found: true, cycles: 7})

	st := acc.st
	if got := st.PerIteration[0]; got.NewPoints != 0 || got.CumPoints != 0 || got.CumTimingDiffs != 1 {
		t.Errorf("IterStats = %+v, want NewPoints=0 CumPoints=0 CumTimingDiffs=1", got)
	}
	if len(st.Findings) != 1 || len(st.FindingSeeds) != 1 {
		t.Errorf("findings = %d/%d seeds, want 1/1", len(st.Findings), len(st.FindingSeeds))
	}
	if st.ExecutedCycles != 7 {
		t.Errorf("ExecutedCycles = %d, want 7", st.ExecutedCycles)
	}
	// The iteration is within the early window, so a breakdown entry is
	// recorded even though nothing triggered.
	if len(st.EarlyBreakdown) != 1 || st.EarlyBreakdown[0] != [2]int{0, 0} {
		t.Errorf("EarlyBreakdown = %v, want [[0 0]]", st.EarlyBreakdown)
	}
}

// Two outcomes triggering the same point — as two workers in one batch
// round will — must count it once, with the duplicate's NewPoints at zero.
func TestApplyDuplicateTriggerAcrossOutcomes(t *testing.T) {
	d := liteFactory()
	id := d.Analysis.Monitored()[0].ID
	acc := newStatsAccum(d.Analysis, SonarOptions(10))
	acc.apply(&outcome{triggered: []int{id, id}})
	acc.apply(&outcome{triggered: []int{id}})

	st := acc.st
	if st.PerIteration[0].NewPoints != 1 || st.PerIteration[0].CumPoints != 1 {
		t.Errorf("first outcome: %+v, want NewPoints=1 CumPoints=1", st.PerIteration[0])
	}
	if st.PerIteration[1].NewPoints != 0 || st.PerIteration[1].CumPoints != 1 {
		t.Errorf("duplicate outcome: %+v, want NewPoints=0 CumPoints=1", st.PerIteration[1])
	}
	if len(st.TriggeredPoints) != 1 {
		t.Errorf("TriggeredPoints = %v, want exactly {%d}", st.TriggeredPoints, id)
	}
	if st.EarlyTriggered != 1 {
		t.Errorf("EarlyTriggered = %d, want 1", st.EarlyTriggered)
	}
}

// KeepFindings caps the retained finding list but never the timing-diff
// count.
func TestApplyKeepFindingsCapsRetention(t *testing.T) {
	opt := SonarOptions(10)
	opt.KeepFindings = 1
	acc := newStatsAccum(liteFactory().Analysis, opt)
	acc.apply(&outcome{found: true})
	acc.apply(&outcome{found: true})

	if got := len(acc.st.Findings); got != 1 {
		t.Errorf("retained findings = %d, want 1 (capped)", got)
	}
	if got := acc.st.PerIteration[1].CumTimingDiffs; got != 2 {
		t.Errorf("CumTimingDiffs = %d, want 2 (uncapped)", got)
	}
}

// The empty-attacker-log path: a testcase that carries an attacker program
// whose logs are empty (e.g. the attacker never committed inside the run)
// must not synthesize a finding from the empty logs.
func TestApplyEmptyAttackerLogs(t *testing.T) {
	victim := []uarch.CommitRecord{{Idx: 0, Cycle: 0}, {Idx: 1, Cycle: 5}}
	exA := &Execution{Log: victim}
	exB := &Execution{Log: victim}
	tc := &Testcase{Attacker: []isa.Instr{{Op: isa.ADDI}}}
	if f := new(detect.Finding); analyzeExecutions(f, tc, exA, exB) {
		t.Errorf("empty attacker logs produced a finding: %v", f)
	}
}
