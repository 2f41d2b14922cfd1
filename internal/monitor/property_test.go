package monitor

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"sonar/internal/hdl"
	"sonar/internal/trace"
)

// randomEventRig builds a 3-request point and replays a random valid-pulse
// schedule, returning the snapshot plus the raw schedule for reference
// checking.
type schedule struct {
	// events[i] = (cycle, reqIdx)
	cycles []int64
	reqs   []int
}

func replay(t *testing.T, sched schedule, data []uint64) *Snapshot {
	t.Helper()
	n := hdl.NewNetlist("R")
	m := n.Module("dut")
	valids := make([]*hdl.Signal, 3)
	datas := make([]*hdl.Signal, 3)
	for i := 0; i < 3; i++ {
		valids[i] = m.Wire(portName(i)+"_valid", 1)
		datas[i] = m.Wire(portName(i)+"_bits", 32)
	}
	sels := []*hdl.Signal{m.Wire("s0", 1), m.Wire("s1", 1)}
	m.MuxTree("out", sels, datas)
	a := trace.Analyze(n)
	mon := New(a, Config{})
	mon.SetWindow(true)
	cur := int64(0)
	for i := range sched.cycles {
		for cur < sched.cycles[i] {
			n.Step()
			cur++
		}
		datas[sched.reqs[i]].Set(data[i%len(data)])
		valids[sched.reqs[i]].Set(1)
		valids[sched.reqs[i]].Set(0)
	}
	return mon.Snapshot()
}

func portName(i int) string {
	return "io_req_" + string(rune('0'+i))
}

// referenceMinDistinct recomputes the minimum distinct-request interval by
// brute force over all event pairs.
func referenceMinDistinct(sched schedule) int64 {
	best := NoInterval
	for i := range sched.cycles {
		for j := range sched.cycles {
			if i == j || sched.reqs[i] == sched.reqs[j] {
				continue
			}
			d := sched.cycles[i] - sched.cycles[j]
			if d < 0 {
				d = -d
			}
			if d < best {
				best = d
			}
		}
	}
	return best
}

// Property: the monitor's incrementally tracked minimum distinct-request
// interval equals the brute-force minimum over all pairs, for random
// schedules.
func TestQuickMinIntervalMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 200; trial++ {
		nEvents := 1 + rng.Intn(10)
		sched := schedule{}
		cur := int64(0)
		lastPerReq := map[int]int64{}
		for i := 0; i < nEvents; i++ {
			cur += int64(rng.Intn(4))
			req := rng.Intn(3)
			// A valid signal can only rise once per cycle per request.
			if last, ok := lastPerReq[req]; ok && last == cur {
				cur++
			}
			lastPerReq[req] = cur
			sched.cycles = append(sched.cycles, cur)
			sched.reqs = append(sched.reqs, req)
		}
		snap := replay(t, sched, []uint64{1, 2, 3})
		got := snap.Points[0].MinIntvlDistinct
		want := referenceMinDistinct(sched)
		if got != want {
			t.Fatalf("trial %d: monitor %d != reference %d (sched %+v)", trial, got, want, sched)
		}
		if (got == 0) != snap.Points[0].VolatileContention {
			t.Fatalf("trial %d: VolatileContention inconsistent with interval %d", trial, got)
		}
		if snap.Points[0].EventCount != nEvents {
			t.Fatalf("trial %d: events %d != %d", trial, snap.Points[0].EventCount, nEvents)
		}
	}
}

// Property: digests are order- and value-sensitive but deterministic.
func TestQuickDigestDeterminism(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 50; trial++ {
		sched := schedule{}
		var cur int64
		for i := 0; i < 5; i++ {
			cur += 1 + int64(rng.Intn(3))
			sched.cycles = append(sched.cycles, cur)
			sched.reqs = append(sched.reqs, rng.Intn(3))
		}
		d1 := replay(t, sched, []uint64{4, 5}).Points[0].Digest
		d2 := replay(t, sched, []uint64{4, 5}).Points[0].Digest
		if d1 != d2 {
			t.Fatalf("trial %d: digest not deterministic", trial)
		}
		d3 := replay(t, sched, []uint64{4, 6}).Points[0].Digest
		if d1 == d3 {
			t.Fatalf("trial %d: digest ignored data change", trial)
		}
	}
}

// recordWithScan is record as it was before the same-cycle scan was
// dropped: after the adjacent-pair update it also walks every request of
// the point and zeroes the distinct interval when another request arrived
// this very cycle.
func recordWithScan(ps *pointSet, cfg *Config, pi int32, ri int, cycle int64, data uint64) {
	st := &ps.states[pi]
	if st.eventCount == 0 {
		ps.markDirty(pi)
	}
	if st.constPeer {
		st.minIntvlDistinct = 0
	}
	if st.lastAnyCycle >= 0 && st.lastAnyReq != ri {
		if d := cycle - st.lastAnyCycle; d < st.minIntvlDistinct {
			st.minIntvlDistinct = d
		}
	}
	for rj := range st.lastCycle {
		if rj != ri && st.lastCycle[rj] == cycle {
			st.minIntvlDistinct = 0
		}
	}
	if st.lastCycle[ri] >= 0 {
		if d := cycle - st.lastCycle[ri]; d < st.minIntvlSame {
			st.minIntvlSame = d
		}
		if data&cfg.SimilarityMask == st.lastData[ri]&cfg.SimilarityMask {
			st.samePathHit = true
		}
	}
	st.lastCycle[ri] = cycle
	st.lastData[ri] = data
	st.lastAnyCycle = cycle
	st.lastAnyReq = ri
	st.eventCount++
	st.hash = fnv1a(st.hash, uint64(ri))
	st.hash = fnv1a(st.hash, data)
}

// TestRecordNeedsNoSameCycleScan drives random nondecreasing (request,
// cycle, data) sequences, with resets in between, through record and
// through recordWithScan on twin point sets, and requires identical point
// states after every call: between resets, same-cycle arrivals of distinct
// requests always include an adjacent pair, which record already folds.
func TestRecordNeedsNoSameCycleScan(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	n := hdl.NewNetlist("R")
	sig := func(name string) *hdl.Signal { return n.Wire(name, 8) }
	var points []*trace.Point
	for pi := 0; pi < 6; pi++ {
		p := &trace.Point{ID: pi}
		for ri := 0; ri <= pi%4+1; ri++ {
			req := trace.Request{Data: sig(fmt.Sprintf("p%d_r%d_bits", pi, ri))}
			if pi != 5 || ri != 0 { // point 5 has a constantly-valid request
				req.Valids = []*hdl.Signal{sig(fmt.Sprintf("p%d_r%d_valid", pi, ri))}
			}
			p.Requests = append(p.Requests, req)
		}
		points = append(points, p)
	}
	cfg := Config{SimilarityMask: 0x3}
	got, want := newPointSet(points), newPointSet(points)
	for run := 0; run < 200; run++ {
		cycle := int64(rng.Intn(3))
		for k := rng.Intn(40); k > 0; k-- {
			cycle += int64(rng.Intn(3) / 2) // mostly repeats: same-cycle bursts
			pi := int32(rng.Intn(len(points)))
			ri := rng.Intn(len(points[pi].Requests))
			data := uint64(rng.Intn(8))
			got.record(&cfg, pi, ri, cycle, data)
			recordWithScan(&want, &cfg, pi, ri, cycle, data)
			if !reflect.DeepEqual(got.states, want.states) || !slices.Equal(got.dirty, want.dirty) || got.ndirty != want.ndirty {
				t.Fatalf("run %d: record(point %d, req %d, cycle %d) diverged from the scanning rule:\n got %+v\nwant %+v",
					run, pi, ri, cycle, got.states[pi], want.states[pi])
			}
		}
		got.reset()
		want.reset()
	}
}
