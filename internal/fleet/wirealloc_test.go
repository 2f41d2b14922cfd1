//go:build go1.24

package fleet

import (
	"testing"

	"sonar/internal/detect"
	"sonar/internal/fuzz"
)

// reportAllocBound bounds the objects DecodeReport allocates for a report
// with findings: the result, its outcome array and one array per kind of
// list (triggered points, interval vectors, findings, affected entries,
// state diffs).
const reportAllocBound = 7

// DecodeReport carves every list of a kind from one array, so an 8-outcome
// report costs the same number of objects whether one outcome or all eight
// carry a finding. (Escape analysis decides the count, so the file builds
// from go1.24 on, the toolchain CI runs it on.)
func TestDecodeReportAllocsConstant(t *testing.T) {
	var first float64
	for found := 1; found <= 8; found++ {
		res := &fuzz.LeaseResult{Shard: 1, Round: 3, Outcomes: make([]fuzz.OutcomeWire, 8)}
		for i := range res.Outcomes {
			ow := &res.Outcomes[i]
			ow.Triggered = []int{2, 5, 7, 11}
			ow.Cycles = int64(900 + i)
			ow.Intvls = []fuzz.PointIntvl{{Point: 2, Intvl: 3}, {Point: 5, Intvl: 0}, {Point: 11, Intvl: 40}}
			if i < found {
				ow.Finding = &detect.Finding{
					Affected:   []detect.Affected{{Idx: 1, Pos: 2, CCDA: 3, CCDB: 4}, {Idx: 5, Pos: 6, CCDA: 7, CCDB: 9}},
					StateDiffs: []detect.StateDiff{{PointID: 5, Reason: detect.ReasonIntvl, IntvlA: 3, IntvlB: 9}},
				}
			}
		}
		body := AppendReport(nil, res)
		if _, err := DecodeReport(body); err != nil {
			t.Fatalf("%d findings: %v", found, err)
		}
		n := testing.AllocsPerRun(50, func() { _, _ = DecodeReport(body) })
		if found == 1 {
			first = n
		}
		if n != first || n > reportAllocBound {
			t.Errorf("8-outcome report with %d findings: DecodeReport allocates %.1f objects, want %.1f as with one finding, at most %d", found, n, first, reportAllocBound)
		}
	}
}
