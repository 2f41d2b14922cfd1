package fuzz

import (
	"testing"
	"time"

	"sonar/internal/boom"
)

func TestPerfCampaign(t *testing.T) {
	d := NewDUT(boom.New())
	// Identify strict points (no const-valid peer, at least 2 valid reqs).
	strict := make(map[int]bool)
	for _, p := range d.Analysis.Monitored() {
		nv := 0
		for i := range p.Requests {
			if p.Requests[i].HasValid() {
				nv++
			}
		}
		if nv == len(p.Requests) && nv >= 2 {
			strict[p.ID] = true
		}
	}
	t.Logf("strict monitorable points: %d", len(strict))
	for _, mode := range []string{"sonar", "random"} {
		opt := SonarOptions(400)
		if mode == "random" {
			opt = RandomOptions(400)
		}
		t1 := time.Now()
		st := RunParallelExec(func() Executor { return d }, opt)
		ns := 0
		for id := range st.TriggeredPoints {
			if strict[id] {
				ns++
			}
		}
		last := st.PerIteration[len(st.PerIteration)-1]
		t.Logf("%s: %v triggered=%d strictTriggered=%d timingdiffs=%d corpus=%d",
			mode, time.Since(t1).Round(time.Millisecond), last.CumPoints, ns, last.CumTimingDiffs, st.CorpusSize)
	}
}
