package experiments

import (
	"math/rand"

	"sonar/internal/boom"
	"sonar/internal/detect"
	"sonar/internal/fuzz"
	"sonar/internal/monitor"
	"sonar/internal/trace"
	"sonar/internal/uarch"
)

// AblationNoFilterResult quantifies the §5.2 risk filter's instrumentation
// saving.
type AblationNoFilterResult struct {
	// MonitorsFiltered/MonitorsUnfiltered are instrumented point counts
	// with and without the filter.
	MonitorsFiltered, MonitorsUnfiltered int
	// StatementsFiltered/StatementsUnfiltered are the generated monitoring
	// statement counts.
	StatementsFiltered, StatementsUnfiltered int
}

// AblationNoFilter instruments BOOM with and without the risk filter.
func AblationNoFilter() AblationNoFilterResult {
	soc := boom.New()
	a := trace.Analyze(soc.Net)
	with := monitor.New(a, monitor.Config{})
	soc2 := boom.New()
	a2 := trace.Analyze(soc2.Net)
	without := monitor.New(a2, monitor.Config{IgnoreFilter: true})
	return AblationNoFilterResult{
		MonitorsFiltered:     with.NumPoints(),
		MonitorsUnfiltered:   without.NumPoints(),
		StatementsFiltered:   with.Statements(),
		StatementsUnfiltered: without.Statements(),
	}
}

// AblationWindowResult quantifies the monitoring-window restriction (§6.1):
// without it, secret-independent contention states flood the
// dual-differential comparison, inflating the root-cause candidate list.
type AblationWindowResult struct {
	// FindingsWindowed/FindingsAlways count detected side channels.
	FindingsWindowed, FindingsAlways int
	// StateDiffsWindowed/StateDiffsAlways are the average contention-state
	// diffs attached per finding — the §7.2 debugging effort proxy.
	StateDiffsWindowed, StateDiffsAlways float64
}

// AblationWindow runs equal campaigns with the ROB-scoped monitoring window
// and with whole-run state collection.
func AblationWindow(iterations int) AblationWindowResult {
	run := func(always bool) (int, float64) {
		d := fuzz.NewDUT(boom.New())
		d.WindowAlwaysOpen = always
		opt := fuzz.SonarOptions(iterations)
		opt.KeepFindings = 0
		st := onDUT(d, opt)
		total := 0
		for _, f := range st.Findings {
			total += len(f.StateDiffs)
		}
		if len(st.Findings) == 0 {
			return 0, 0
		}
		return len(st.Findings), float64(total) / float64(len(st.Findings))
	}
	var r AblationWindowResult
	r.FindingsWindowed, r.StateDiffsWindowed = run(false)
	r.FindingsAlways, r.StateDiffsAlways = run(true)
	return r
}

// AblationDirectionResult compares the adaptive mutation-direction policy
// against random directions at equal budget.
type AblationDirectionResult struct {
	AdaptivePoints, RandomDirPoints           int // triggered contention points per policy
	AdaptiveTimingDiffs, RandomDirTimingDiffs int // secret-dependent timing differences per policy
}

// AblationDirection runs two equal campaigns differing only in the
// direction policy of the directed mutation.
func AblationDirection(iterations int) AblationDirectionResult {
	d := fuzz.NewDUT(boom.New())
	adaptive := onDUT(d, fuzz.SonarOptions(iterations))
	opt := fuzz.SonarOptions(iterations)
	opt.RandomDirection = true
	random := onDUT(d, opt)
	la := adaptive.PerIteration[len(adaptive.PerIteration)-1]
	lr := random.PerIteration[len(random.PerIteration)-1]
	return AblationDirectionResult{
		AdaptivePoints: la.CumPoints, RandomDirPoints: lr.CumPoints,
		AdaptiveTimingDiffs: la.CumTimingDiffs, RandomDirTimingDiffs: lr.CumTimingDiffs,
	}
}

// AblationCCDResult quantifies the commit-cycle-difference metric (§7.1):
// raw commit-time comparison flags every instruction queued behind a
// delayed one; CCD keeps only the genuinely affected ones.
type AblationCCDResult struct {
	// Testcases is the number of timing-difference-exposing testcases
	// evaluated.
	Testcases int
	// RawFlagged/CCDFlagged are instructions flagged per such testcase by
	// raw commit-time comparison vs the CCD metric.
	RawFlagged, CCDFlagged float64
}

// AblationCCD executes random testcases under both secrets and compares
// the two detection metrics.
func AblationCCD(testcases int) AblationCCDResult {
	d := fuzz.NewDUT(boom.NewLite())
	rng := rand.New(rand.NewSource(7))
	var res AblationCCDResult
	var raw, ccd int
	for i := 0; i < testcases; i++ {
		tc := fuzz.Generate(rng, false)
		exA := d.Execute(tc, 0)
		exB := d.Execute(tc, 1)
		if !detect.TimingDiff(exA.Log, exB.Log) {
			continue
		}
		res.Testcases++
		raw += rawFlagged(exA.Log, exB.Log)
		ccd += len(detect.CCDCompare(nil, exA.Log, exB.Log))
	}
	if res.Testcases > 0 {
		res.RawFlagged = float64(raw) / float64(res.Testcases)
		res.CCDFlagged = float64(ccd) / float64(res.Testcases)
	}
	return res
}

// rawFlagged counts instructions whose absolute commit times differ — the
// naive metric that misattributes in-order commit queueing (Figure 5 top).
func rawFlagged(a, b []uarch.CommitRecord) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	count := 0
	for i := 0; i < n; i++ {
		if a[i].Idx != b[i].Idx {
			break
		}
		if a[i].Cycle != b[i].Cycle {
			count++
		}
	}
	return count
}
