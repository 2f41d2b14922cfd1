package experiments

import (
	"fmt"
	"strings"

	"sonar/internal/baseline"
	"sonar/internal/boom"
	"sonar/internal/fuzz"
	"sonar/internal/nutshell"
)

// Series is one cumulative campaign curve.
type Series struct {
	Name   string           // legend label
	Points []fuzz.IterStats // cumulative per-iteration samples
}

// Final returns the last point of the series.
func (s Series) Final() fuzz.IterStats {
	if len(s.Points) == 0 {
		return fuzz.IterStats{}
	}
	return s.Points[len(s.Points)-1]
}

// sample renders every len/10th point of a series.
func (s Series) sample(b *strings.Builder) {
	step := len(s.Points) / 10
	if step == 0 {
		step = 1
	}
	fmt.Fprintf(b, "    %-22s", s.Name)
	for i := step - 1; i < len(s.Points); i += step {
		fmt.Fprintf(b, " %5d", s.Points[i].CumPoints)
	}
	fmt.Fprintf(b, "  | timing diffs: %d\n", s.Final().CumTimingDiffs)
}

// Figure8Result compares Sonar against random testing on one DUT.
type Figure8Result struct {
	DUT    string // DUT name ("boom" or "nutshell")
	Sonar  Series // Sonar's guided campaign
	Random Series // random-testing baseline at equal budget
}

// ContentionGain is Sonar's relative increase in triggered contention
// points over random testing (paper: +117% on average).
func (r Figure8Result) ContentionGain() float64 {
	rnd := r.Random.Final().CumPoints
	if rnd == 0 {
		return 0
	}
	return float64(r.Sonar.Final().CumPoints)/float64(rnd) - 1
}

// TimingDiffGain is Sonar's relative increase in observed timing
// differences (paper: over +210%).
func (r Figure8Result) TimingDiffGain() float64 {
	rnd := r.Random.Final().CumTimingDiffs
	if rnd == 0 {
		return 0
	}
	return float64(r.Sonar.Final().CumTimingDiffs)/float64(rnd) - 1
}

// Figure8 runs Sonar and random-testing campaigns of the given length on
// both DUTs (paper uses 3000 iterations).
func Figure8(iterations int) []Figure8Result {
	var out []Figure8Result
	for _, bld := range []struct {
		name string
		mk   func() *fuzz.DUT
	}{
		{"boom", func() *fuzz.DUT { return fuzz.NewDUT(boom.New()) }},
		{"nutshell", func() *fuzz.DUT { return fuzz.NewDUT(nutshell.New()) }},
	} {
		d := bld.mk()
		sonarStats := onDUT(d, observed(fuzz.SonarOptions(iterations)))
		randomStats := onDUT(d, observed(fuzz.RandomOptions(iterations)))
		out = append(out, Figure8Result{
			DUT:    bld.name,
			Sonar:  Series{Name: "Sonar", Points: sonarStats.PerIteration},
			Random: Series{Name: "random", Points: randomStats.PerIteration},
		})
	}
	return out
}

// RenderFigure8 formats the comparison curves.
func RenderFigure8(rs []Figure8Result) string {
	var b strings.Builder
	b.WriteString("Figure 8: cumulative triggered contentions and timing differences, Sonar vs random\n")
	for _, r := range rs {
		fmt.Fprintf(&b, "  %s (%d iterations):\n", r.DUT, len(r.Sonar.Points))
		r.Sonar.sample(&b)
		r.Random.sample(&b)
		fmt.Fprintf(&b, "    contention gain: %+.0f%%   timing-diff gain: %+.0f%%\n",
			100*r.ContentionGain(), 100*r.TimingDiffGain())
	}
	return b.String()
}

// Figure9Result is the single-valid dominance breakdown of the first 20
// testcases' newly triggered contentions.
type Figure9Result struct {
	DUT string // DUT name ("boom" or "nutshell")
	// PerTestcase holds [singleValidDominated, other] per testcase.
	PerTestcase [][2]int
}

// DominanceShare is the overall single-valid fraction (the paper observes
// these dominate the early cluster).
func (r Figure9Result) DominanceShare() float64 {
	var sv, tot int
	for _, e := range r.PerTestcase {
		sv += e[0]
		tot += e[0] + e[1]
	}
	if tot == 0 {
		return 0
	}
	return float64(sv) / float64(tot)
}

// Figure9 runs the first 20 testcases on BOOM and classifies the triggered
// contentions.
func Figure9() Figure9Result {
	d := fuzz.NewDUT(boom.New())
	st := onDUT(d, observed(fuzz.SonarOptions(20)))
	return Figure9Result{DUT: "boom", PerTestcase: st.EarlyBreakdown}
}

// RenderFigure9 formats the dominance bars.
func RenderFigure9(r Figure9Result) string {
	var b strings.Builder
	b.WriteString("Figure 9: single-valid-signal dominance in contentions of the first 20 testcases\n")
	for i, e := range r.PerTestcase {
		fmt.Fprintf(&b, "  testcase %2d: %4d single-valid, %3d other\n", i+1, e[0], e[1])
	}
	fmt.Fprintf(&b, "  overall single-valid share: %.0f%%\n", 100*r.DominanceShare())
	return b.String()
}

// Figure10Result is the strategy breakdown on BOOM.
type Figure10Result struct {
	Series []Series // random, +retention, +selection, +mutation
}

// Figure10 runs the breakdown campaigns (paper Figure 10): each strategy
// subsumes the previous one.
func Figure10(iterations int) Figure10Result {
	d := fuzz.NewDUT(boom.New())
	mk := func(name string, o fuzz.Options) Series {
		st := onDUT(d, observed(o))
		return Series{Name: name, Points: st.PerIteration}
	}
	base := fuzz.RandomOptions(iterations)
	ret := base
	ret.Retention = true
	sel := ret
	sel.Selection = true
	mut := sel
	mut.DirectedMutation = true
	return Figure10Result{Series: []Series{
		mk("random", base),
		mk("+retention", ret),
		mk("+selection", sel),
		mk("+directed mutation", mut),
	}}
}

// RenderFigure10 formats the breakdown.
func RenderFigure10(r Figure10Result) string {
	var b strings.Builder
	b.WriteString("Figure 10: strategy breakdown on BOOM (cumulative triggered contentions)\n")
	for _, s := range r.Series {
		s.sample(&b)
	}
	return b.String()
}

// Figure11Result compares Sonar with the SpecDoctor-style baseline.
type Figure11Result struct {
	Sonar      Series // Sonar's guided campaign
	SpecDoctor Series // SpecDoctor-style exhaustive baseline
	// Complexity holds the per-module-size instrumentation cost
	// measurements (O(n) vs O(n^2), §8.3.4).
	Complexity []baseline.ComplexityPoint
}

// NewContentionRatio is Sonar's multiple of SpecDoctor's triggered points
// (paper: 2.13x).
func (r Figure11Result) NewContentionRatio() float64 {
	sd := r.SpecDoctor.Final().CumPoints
	if sd == 0 {
		return 0
	}
	return float64(r.Sonar.Final().CumPoints) / float64(sd)
}

// Figure11 runs equal-iteration campaigns for Sonar and the
// SpecDoctor-style fuzzer on BOOM, plus the instrumentation complexity
// sweep.
func Figure11(iterations int) Figure11Result {
	d := fuzz.NewDUT(boom.New())
	sonarStats := onDUT(d, observed(fuzz.SonarOptions(iterations)))
	sdStats := baseline.RunSpecDoctor(d, iterations, 1)
	return Figure11Result{
		Sonar:      Series{Name: "Sonar", Points: sonarStats.PerIteration},
		SpecDoctor: Series{Name: "SpecDoctor-style", Points: sdStats.PerIteration},
		Complexity: baseline.MeasureComplexity([]int{1000, 2000, 4000, 8000, 16000}),
	}
}

// RenderFigure11 formats the comparison.
func RenderFigure11(r Figure11Result) string {
	var b strings.Builder
	b.WriteString("Figure 11: Sonar vs SpecDoctor-style baseline on BOOM\n")
	r.Sonar.sample(&b)
	r.SpecDoctor.sample(&b)
	fmt.Fprintf(&b, "    new-contention ratio: %.2fx\n", r.NewContentionRatio())
	b.WriteString("  instrumentation cost (statements: Sonar O(n) vs SpecDoctor O(n^2)):\n")
	for _, c := range r.Complexity {
		fmt.Fprintf(&b, "    n=%5d  sonar=%8dns  specdoctor=%10dns\n",
			c.Statements, c.SonarNs, c.SpecDoctorNs)
	}
	return b.String()
}
