package fuzz

import (
	"bytes"
	"fmt"
	"testing"
)

// TestLaneMatrix is the lane-demux half of the determinism contract, run by
// CI as a lanes × workers matrix under -race: for a fixed (Seed, Workers,
// BatchSize), the campaign event stream must be byte-identical at every
// Lanes setting — lane grouping moves evaluation work, never bytes.
func TestLaneMatrix(t *testing.T) {
	stream := func(lanes, workers int) []byte {
		opt := SonarOptions(48)
		opt.Workers = workers
		opt.BatchSize = 6
		opt.Lanes = lanes
		opt, mem := observedOptions(opt)
		RunParallelExec(liteExec, opt)
		return mem.Bytes()
	}
	baseline := map[int][]byte{}
	for _, workers := range []int{1, 4} {
		baseline[workers] = stream(1, workers)
		if len(baseline[workers]) == 0 {
			t.Fatalf("workers=%d: no events emitted", workers)
		}
	}
	for _, lanes := range []int{1, 64} {
		for _, workers := range []int{1, 4} {
			t.Run(fmt.Sprintf("lanes=%d/workers=%d", lanes, workers), func(t *testing.T) {
				if !bytes.Equal(stream(lanes, workers), baseline[workers]) {
					t.Errorf("lanes=%d event stream differs from lanes=1 at workers=%d",
						lanes, workers)
				}
			})
		}
	}
}

// TestLaneStatsIdentical extends the contract to default-option campaigns
// and to Stats: lane widths (including awkward ones that do not divide the
// batch size) must not change any campaign result.
func TestLaneStatsIdentical(t *testing.T) {
	base := SonarOptions(30)
	want := RunParallelExec(liteExec, base)
	for _, lanes := range []int{0, 1, 7, 64, 1000} {
		opt := base
		opt.Lanes = lanes
		statsEqual(t, want, RunParallelExec(liteExec, opt))
	}

	pbase := SonarOptions(33)
	pbase.Workers = 3
	pbase.BatchSize = 5 // batch not a multiple of any lane width below
	pwant := RunParallelExec(liteExec, pbase)
	for _, lanes := range []int{7, 64} {
		opt := pbase
		opt.Lanes = lanes
		statsEqual(t, pwant, RunParallelExec(liteExec, opt))
	}
}

// TestNormalizeLanes pins the clamp: 0 (the default), negatives, and
// anything past the plane word width mean hdl.Lanes.
func TestNormalizeLanes(t *testing.T) {
	for _, c := range []struct{ in, want int }{
		{-3, 64}, {0, 64}, {1, 1}, {2, 2}, {64, 64}, {65, 64}, {1 << 20, 64},
	} {
		if got := (Options{Lanes: c.in}).LaneWidth(); got != c.want {
			t.Errorf("Options{Lanes: %d}.LaneWidth() = %d, want %d", c.in, got, c.want)
		}
	}
}
