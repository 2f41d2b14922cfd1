package detect

import (
	"testing"

	"sonar/internal/isa"
	"sonar/internal/uarch"
)

func rec(idx int, cycle int64) uarch.CommitRecord {
	return uarch.CommitRecord{Idx: idx, Cycle: cycle, Instr: isa.NOP()}
}

// Figure 5 of the paper: the div is genuinely delayed by one cycle under
// secret 1; the mul commits later too, but only because of in-order commit.
// CCD must flag the div and filter out the mul.
func TestCCDFigure5(t *testing.T) {
	logA := []uarch.CommitRecord{rec(0, 10), rec(1, 20), rec(2, 21)} // secret 0
	logB := []uarch.CommitRecord{rec(0, 10), rec(1, 21), rec(2, 22)} // secret 1: div +1
	affected := CCDCompare(nil, logA, logB)
	if len(affected) != 1 {
		t.Fatalf("affected = %v, want exactly the div", affected)
	}
	if affected[0].Idx != 1 {
		t.Errorf("affected idx = %d, want 1 (the div)", affected[0].Idx)
	}
	if affected[0].CCDA != 10 || affected[0].CCDB != 11 {
		t.Errorf("CCD = %d -> %d, want 10 -> 11", affected[0].CCDA, affected[0].CCDB)
	}
	if affected[0].Delta() != 1 {
		t.Errorf("Delta = %d, want 1", affected[0].Delta())
	}
	if !TimingDiff(logA, logB) {
		t.Error("TimingDiff must hold")
	}
}

func TestCCDIdenticalRuns(t *testing.T) {
	log := []uarch.CommitRecord{rec(0, 5), rec(1, 9), rec(2, 30)}
	if got := CCDCompare(nil, log, log); len(got) != 0 {
		t.Errorf("identical runs affected = %v", got)
	}
	if TimingDiff(log, log) {
		t.Error("identical runs must not report a timing difference")
	}
}

// A uniform shift of all commit times (e.g. different start alignment)
// changes no CCD except at the shift point.
func TestCCDUniformShiftOnlyFlagsOrigin(t *testing.T) {
	logA := []uarch.CommitRecord{rec(0, 10), rec(1, 12), rec(2, 14)}
	logB := []uarch.CommitRecord{rec(0, 10), rec(1, 17), rec(2, 19)}
	affected := CCDCompare(nil, logA, logB)
	if len(affected) != 1 || affected[0].Idx != 1 {
		t.Errorf("affected = %v, want only instruction 1", affected)
	}
}

func TestCCDStopsAtControlFlowDivergence(t *testing.T) {
	logA := []uarch.CommitRecord{rec(0, 1), rec(1, 2), rec(5, 3), rec(6, 9)}
	logB := []uarch.CommitRecord{rec(0, 1), rec(1, 2), rec(2, 3), rec(6, 4)}
	affected := CCDCompare(nil, logA, logB)
	for _, a := range affected {
		if a.Pos >= 2 {
			t.Errorf("comparison continued past divergence: %v", a)
		}
	}
	if !TimingDiff(logA, logB) {
		t.Error("diverged control flow is a timing difference")
	}
}

func TestCCDDifferentLengths(t *testing.T) {
	logA := []uarch.CommitRecord{rec(0, 1), rec(1, 2)}
	logB := []uarch.CommitRecord{rec(0, 1), rec(1, 2), rec(2, 3)}
	if got := CCDCompare(nil, logA, logB); len(got) != 0 {
		t.Errorf("prefix-equal logs affected = %v", got)
	}
	if !TimingDiff(logA, logB) {
		t.Error("different lengths must count as a timing difference")
	}
}

func TestAnalyzeNilWhenClean(t *testing.T) {
	log := []uarch.CommitRecord{rec(0, 5), rec(1, 9)}
	slow := []uarch.CommitRecord{rec(0, 5), rec(1, 12)}
	var f Finding
	if !Analyze(&f, log, slow, nil, nil) || len(f.Affected) != 1 {
		t.Fatalf("Analyze of a delayed run found %v, want one affected instruction", f.Affected)
	}
	// The recycled finding of a clean comparison holds nothing.
	if Analyze(&f, log, log, nil, nil) || len(f.Affected) != 0 || len(f.StateDiffs) != 0 {
		t.Errorf("Analyze of identical runs = %v, want no finding", f)
	}
}

func TestFindingMaxDeltaAndString(t *testing.T) {
	f := &Finding{Affected: []Affected{
		{Idx: 3, CCDA: 10, CCDB: 14},
		{Idx: 5, CCDA: 7, CCDB: 5},
	}}
	if f.MaxDelta() != 4 {
		t.Errorf("MaxDelta = %d, want 4", f.MaxDelta())
	}
	an := namedAnalysis("lsu.a", "lsu.b", "exe.c")
	f.StateDiffs = []StateDiff{
		{PointID: 0, Reason: ReasonStream | ReasonCount, CountA: 3, CountB: 6},
		{PointID: 1, Reason: ReasonIntvl},
		{PointID: 2, Reason: ReasonRevisit, Persistent: true},
	}
	want := "side channel: 2 instruction(s) affected, max CCD delta 4 cycles\n" +
		"  instr 3: CCD 10 -> 14\n" +
		"  instr 5: CCD 7 -> 5\n" +
		"  point 0 (lsu.a): request stream, event count 3 vs 6\n" +
		"  point 1 (lsu.b): reqsIntvl\n" +
		"  point 2 (exe.c): same-path revisit\n"
	if s := f.String(an); s != want {
		t.Errorf("String =\n%s\nwant\n%s", s, want)
	}
	comps := f.Components(an)
	if len(comps) != 2 || comps[0] != "lsu" || comps[1] != "exe" {
		t.Errorf("Components = %v", comps)
	}
}
