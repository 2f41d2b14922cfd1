package experiments

import (
	"strings"
	"testing"
)

func TestTable1MatchesPaper(t *testing.T) {
	r := Table1()
	if r.Boom.ROBEntries != 96 || r.Nutshell.ROBEntries != 32 {
		t.Error("ROB entries drifted from Table 1")
	}
	text := r.String()
	for _, want := range []string{"BOOM", "NutShell", "Fetch Width", "MSHR"} {
		if !strings.Contains(text, want) {
			t.Errorf("Table 1 text missing %q", want)
		}
	}
}

func TestFigure6Shape(t *testing.T) {
	rs := Figure6()
	if len(rs) != 2 {
		t.Fatalf("DUTs = %d", len(rs))
	}
	boom, nut := rs[0], rs[1]
	// Paper: 71.5% reduction on BOOM, 80.4% on NutShell. The shape
	// requirements: both strongly reduced, NutShell more than BOOM.
	if boom.Reduction() < 0.6 || boom.Reduction() > 0.85 {
		t.Errorf("BOOM reduction = %.1f%%, want ~71.5%%", 100*boom.Reduction())
	}
	if nut.Reduction() < 0.7 || nut.Reduction() > 0.9 {
		t.Errorf("NutShell reduction = %.1f%%, want ~80.4%%", 100*nut.Reduction())
	}
	if nut.Reduction() <= boom.Reduction() {
		t.Error("NutShell must reduce more than BOOM (Figure 6)")
	}
	// Scale: thousands of points, tens of thousands of naive MUXes.
	if boom.NaiveMuxes < 20000 || boom.TracedPoints < 5000 {
		t.Errorf("BOOM scale off: %d naive, %d traced", boom.NaiveMuxes, boom.TracedPoints)
	}
	if text := RenderFigure6(rs); !strings.Contains(text, "reduction") {
		t.Error("render incomplete")
	}
}

func TestFigure7Shape(t *testing.T) {
	rs := Figure7()
	boom, nut := rs[0], rs[1]
	// Paper: 26.2% filtered on BOOM, 35.7% on NutShell.
	if boom.FilterReduction() < 0.15 || boom.FilterReduction() > 0.4 {
		t.Errorf("BOOM filtered = %.1f%%, want ~26%%", 100*boom.FilterReduction())
	}
	if nut.FilterReduction() < 0.25 || nut.FilterReduction() > 0.5 {
		t.Errorf("NutShell filtered = %.1f%%, want ~36%%", 100*nut.FilterReduction())
	}
	if nut.FilterReduction() <= boom.FilterReduction() {
		t.Error("NutShell must filter a larger share than BOOM (Figure 7)")
	}
	// Distribution: the paper finds concentration in frontend, ROB, LSU,
	// and the bus; all five components must be populated.
	for _, comp := range []string{"frontend", "rob", "lsu", "exe", "tilelink"} {
		if boom.ByComponent[comp][0] == 0 {
			t.Errorf("BOOM component %s empty", comp)
		}
	}
}

func TestTable2Shape(t *testing.T) {
	rows := Table2(5)
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	// Wall-clock columns are load-sensitive; the test only checks sanity.
	// cmd/sonar-bench on an idle machine reproduces the paper's shape
	// (positive compile overhead and simulation slowdown, NutShell faster
	// than BOOM) — see EXPERIMENTS.md.
	for _, r := range rows {
		if r.CompileInstMs <= 0 || r.SimInstHz <= 0 {
			t.Errorf("%s: missing timing measurements: %+v", r.DUT, r)
		}
		if r.Statements == 0 || r.FuzzPerHour == 0 {
			t.Errorf("%s: missing statements/fuzz speed", r.DUT)
		}
		if r.MonitoredPoints == 0 || r.MonitoredPoints >= r.ContentionPoints {
			t.Errorf("%s: monitor counts wrong: %d of %d", r.DUT, r.MonitoredPoints, r.ContentionPoints)
		}
	}
	if rows[0].DUT != "nutshell" || rows[1].DUT != "boom" {
		t.Fatal("row order drifted")
	}
	// The deterministic columns keep the paper's ordering: BOOM carries
	// more contention points and monitoring statements than NutShell.
	if rows[1].ContentionPoints <= rows[0].ContentionPoints ||
		rows[1].Statements <= rows[0].Statements {
		t.Error("BOOM must carry more instrumentation than NutShell")
	}
}

func TestFigure8SonarBeatsRandom(t *testing.T) {
	// The guided advantage accrues with iterations (the paper's curves are
	// at 3000); 400 is the smallest budget where it is stable across
	// seeds. A small tolerance absorbs campaign-level randomness.
	rs := Figure8(400)
	for _, r := range rs {
		if r.Sonar.Final().CumPoints <= 0 {
			t.Fatalf("%s: Sonar triggered nothing", r.DUT)
		}
		if r.ContentionGain() <= -0.05 {
			t.Errorf("%s: Sonar contention gain %+.0f%%, must not lose to random (paper: +117%%)",
				r.DUT, 100*r.ContentionGain())
		}
		if r.TimingDiffGain() <= 0.10 {
			t.Errorf("%s: Sonar timing-diff gain %+.0f%%, must clearly beat random (paper: >+210%%)",
				r.DUT, 100*r.TimingDiffGain())
		}
		// Cumulative curves are monotone.
		prev := 0
		for _, p := range r.Sonar.Points {
			if p.CumPoints < prev {
				t.Fatal("non-monotone cumulative curve")
			}
			prev = p.CumPoints
		}
	}
}

func TestFigure9EarlyClusterDominance(t *testing.T) {
	r := Figure9()
	if len(r.PerTestcase) != 20 {
		t.Fatalf("testcases recorded = %d, want 20", len(r.PerTestcase))
	}
	// Paper: the early cluster is dominated by single-valid contentions.
	if r.DominanceShare() < 0.7 {
		t.Errorf("single-valid share = %.0f%%, want dominant (>70%%)", 100*r.DominanceShare())
	}
	// A large number of contentions trigger in the very first testcases
	// (§8.3.2 observation ①).
	if r.PerTestcase[0][0]+r.PerTestcase[0][1] < 20 {
		t.Errorf("first testcase triggered only %d contentions", r.PerTestcase[0][0]+r.PerTestcase[0][1])
	}
}

func TestFigure10StrategyOrdering(t *testing.T) {
	r := Figure10(400)
	if len(r.Series) != 4 {
		t.Fatalf("series = %d", len(r.Series))
	}
	random := r.Series[0].Final()
	directed := r.Series[3].Final()
	// The full strategy stack must beat plain random testing by the end
	// (the paper: "benefits become evident as testing progresses") — on
	// triggered contentions or, at minimum, on exposed timing differences.
	if directed.CumPoints <= random.CumPoints && directed.CumTimingDiffs <= random.CumTimingDiffs {
		t.Errorf("directed mutation (%d pts / %d diffs) did not beat random (%d / %d)",
			directed.CumPoints, directed.CumTimingDiffs, random.CumPoints, random.CumTimingDiffs)
	}
}

func TestFigure11SonarBeatsSpecDoctor(t *testing.T) {
	r := Figure11(400)
	if r.NewContentionRatio() <= 0.95 {
		t.Errorf("Sonar/SpecDoctor ratio = %.2f, want > 1 at scale (paper: 2.13x)", r.NewContentionRatio())
	}
	// Complexity: the SpecDoctor-style pass must grow faster than Sonar's
	// linear identification; compare growth between the first and last
	// sizes.
	first, last := r.Complexity[0], r.Complexity[len(r.Complexity)-1]
	sonarGrowth := float64(last.SonarNs) / float64(first.SonarNs+1)
	specGrowth := float64(last.SpecDoctorNs) / float64(first.SpecDoctorNs+1)
	if specGrowth <= sonarGrowth {
		t.Errorf("SpecDoctor growth %.1fx vs Sonar %.1fx: quadratic blowup not visible",
			specGrowth, sonarGrowth)
	}
}

func TestTable3AllChannelsMeasurable(t *testing.T) {
	rows := Table3(5)
	if len(rows) != 14 {
		t.Fatalf("channels = %d, want 14", len(rows))
	}
	newCount := 0
	for _, r := range rows {
		if r.TimeDiff <= 0 {
			t.Errorf("%s: no measured timing difference", r.ID)
		}
		if r.New {
			newCount++
		}
		if r.Description == "" || r.Resource == "" {
			t.Errorf("%s: metadata missing", r.ID)
		}
	}
	if newCount != 11 {
		t.Errorf("new channels = %d, want 11 (paper)", newCount)
	}
	// The order must be S1..S14.
	if rows[0].ID != "S1" || rows[13].ID != "S14" {
		t.Errorf("ordering wrong: %s..%s", rows[0].ID, rows[13].ID)
	}
	// NutShell exploitation fails (<2% key accuracy -> near-chance bits).
	for _, r := range rows {
		if r.DUT == "nutshell" && r.Accuracy > 0.8 {
			t.Errorf("%s: accuracy %.2f too high for NutShell", r.ID, r.Accuracy)
		}
	}
}

func TestExploitationMatchesPaper(t *testing.T) {
	rs := Exploitation(1, 7)
	if len(rs) != 12 { // 11 Meltdown-style PoCs + the cross-core attack
		t.Fatalf("PoCs = %d, want 12", len(rs))
	}
	if rs[len(rs)-1].ID != "XC" {
		t.Errorf("last result = %s, want the cross-core attack", rs[len(rs)-1].ID)
	}
	boomRecovered := 0
	for _, r := range rs {
		switch r.ID {
		case "S13", "S14":
			if r.KeyAccuracy >= 0.02 {
				t.Errorf("%s: key accuracy %.2f, paper reports <2%%", r.ID, r.KeyAccuracy)
			}
		default:
			if r.BitAccuracy > 0.9 {
				boomRecovered++
			}
		}
	}
	// Paper: all nine BOOM PoCs work (S7/S12 slightly below 99%).
	if boomRecovered < 7 {
		t.Errorf("only %d/9 BOOM PoCs reach >90%% bit accuracy", boomRecovered)
	}
}

func TestAblationNoFilterSavesMonitors(t *testing.T) {
	r := AblationNoFilter()
	if r.MonitorsUnfiltered <= r.MonitorsFiltered {
		t.Error("filter saved no monitors")
	}
	if r.StatementsUnfiltered <= r.StatementsFiltered {
		t.Error("filter saved no statements")
	}
	saved := 1 - float64(r.MonitorsFiltered)/float64(r.MonitorsUnfiltered)
	if saved < 0.15 {
		t.Errorf("filter saved %.0f%%, want >15%% (paper: ~26-36%%)", 100*saved)
	}
}

func TestAblationCCDFiltersArtifacts(t *testing.T) {
	r := AblationCCD(40)
	if r.Testcases == 0 {
		t.Fatal("no timing-difference testcases observed")
	}
	if r.CCDFlagged >= r.RawFlagged {
		t.Errorf("CCD flagged %.1f vs raw %.1f: no in-order-commit artifacts filtered",
			r.CCDFlagged, r.RawFlagged)
	}
}

func TestMitigationsTable(t *testing.T) {
	rows := Mitigations(5)
	if len(rows) != 12 {
		t.Fatalf("rows = %d, want 4 PoCs x 3 configs", len(rows))
	}
	base := map[string]float64{}
	for _, r := range rows {
		if r.Mitigation == "baseline" {
			base[r.PoC] = r.BitAccuracy
		}
	}
	for id, acc := range base {
		if acc < 0.9 {
			t.Errorf("baseline %s accuracy %.2f too low for a mitigation comparison", id, acc)
		}
	}
	// At least one mitigation must break at least one PoC.
	broken := 0
	for _, r := range rows {
		if r.Mitigation != "baseline" && r.BitAccuracy < 0.7 {
			broken++
		}
	}
	if broken == 0 {
		t.Error("no mitigation degraded any PoC")
	}
	if text := RenderMitigations(rows); !strings.Contains(text, "baseline") {
		t.Error("render incomplete")
	}
}

func TestScenarioDeltasNonzero(t *testing.T) {
	if d := scenarioS8(); d <= 0 {
		t.Errorf("S8 scenario delta = %d", d)
	}
	if d := scenarioS10(); d <= 0 {
		t.Errorf("S10 scenario delta = %d", d)
	}
	if d := scenarioS14(); d <= 0 {
		t.Errorf("S14 scenario delta = %d", d)
	}
}

func TestParallelExperiment(t *testing.T) {
	r := Parallel(40, 2)
	if r.SerialPoints == 0 || r.ParallelPoints == 0 {
		t.Fatalf("campaigns triggered nothing: %+v", r)
	}
	if text := RenderParallel(r); !strings.Contains(text, "speedup") {
		t.Error("render incomplete")
	}
}
