package main

import "testing"

// TestVerdicts pins the gate's pass/fail decisions. The thresholds are the
// CI defaults: factor 2, scaling efficiency 0.75, lane speedup 4.
func TestVerdicts(t *testing.T) {
	serial := map[string]row{"CampaignSerial": {"iters_per_sec": 100, "allocs_per_iter": 10}}
	lanesBase := map[string]row{"CampaignLanes64": {"lanes_speedup": 10}}
	for _, c := range []struct {
		name  string
		check func() bool
		want  bool
	}{
		{"floors pass", func() bool {
			return checkFloors(map[string]row{"CampaignSerial": {"iters_per_sec": 60, "allocs_per_iter": 15}}, serial, 2, "cur")
		}, true},
		{"throughput below the floor", func() bool {
			return checkFloors(map[string]row{"CampaignSerial": {"iters_per_sec": 49, "allocs_per_iter": 10}}, serial, 2, "cur")
		}, false},
		{"allocs above the ceiling", func() bool {
			return checkFloors(map[string]row{"CampaignSerial": {"iters_per_sec": 100, "allocs_per_iter": 21}}, serial, 2, "cur")
		}, false},
		{"entry missing", func() bool {
			return checkFloors(map[string]row{"CampaignParallel1": {"iters_per_sec": 100, "allocs_per_iter": 10}}, serial, 2, "cur")
		}, false},
		{"metric missing", func() bool {
			return checkFloors(map[string]row{"CampaignSerial": {"iters_per_sec": 100}}, serial, 2, "cur")
		}, false},
		{"median above the floor with a sample below it", func() bool {
			return checkFloors(map[string]row{"CampaignSerial": {
				"iters_per_sec": 60, "iters_per_sec_min": 40, "iters_per_sec_max": 70, "allocs_per_iter": 10,
			}}, serial, 2, "cur")
		}, true},
		{"median below the floor with a sample above it", func() bool {
			return checkFloors(map[string]row{"CampaignSerial": {
				"iters_per_sec": 45, "iters_per_sec_min": 40, "iters_per_sec_max": 70, "allocs_per_iter": 10,
			}}, serial, 2, "cur")
		}, false},
		{"median allocs above the ceiling with a sample below it", func() bool {
			return checkFloors(map[string]row{"CampaignSerial": {
				"iters_per_sec": 100, "allocs_per_iter": 22, "allocs_per_iter_min": 18, "allocs_per_iter_max": 25,
			}}, serial, 2, "cur")
		}, false},
		{"floor inside the spread is flagged", func() bool {
			return insideSpread(row{"iters_per_sec": 60, "iters_per_sec_min": 40, "iters_per_sec_max": 70}, "iters_per_sec", 50)
		}, true},
		{"floor below the spread is not flagged", func() bool {
			return insideSpread(row{"iters_per_sec": 60, "iters_per_sec_min": 55, "iters_per_sec_max": 70}, "iters_per_sec", 50)
		}, false},
		{"entry without a spread is not flagged", func() bool {
			return insideSpread(row{"iters_per_sec": 50}, "iters_per_sec", 50)
		}, false},
		{"scaling pass", func() bool {
			return checkScaling(map[string]row{
				"CampaignParallel1": {"iters_per_sec": 100},
				"CampaignParallel2": {"iters_per_sec": 160, "cores": 2},
			}, 0.75)
		}, true},
		{"scaling below the floor", func() bool {
			return checkScaling(map[string]row{
				"CampaignParallel1": {"iters_per_sec": 100},
				"CampaignParallel2": {"iters_per_sec": 140, "cores": 2},
			}, 0.75)
		}, false},
		{"scaling skipped on 1 core", func() bool {
			return checkScaling(map[string]row{
				"CampaignParallel1": {"iters_per_sec": 100},
				"CampaignParallel4": {"iters_per_sec": 90, "cores": 1},
			}, 0.75)
		}, true},
		{"lanes pass", func() bool {
			return checkLanes(map[string]row{"CampaignLanes64": {"lanes_speedup": 5}}, lanesBase, "CampaignLanes1", "CampaignLanes64", 4)
		}, true},
		{"lanes below the floor", func() bool {
			return checkLanes(map[string]row{"CampaignLanes64": {"lanes_speedup": 3}}, lanesBase, "CampaignLanes1", "CampaignLanes64", 4)
		}, false},
		{"lanes_speedup parity failure", func() bool {
			// Derivable from the entries (100x), but the baseline pins the
			// recorded metric's presence.
			return checkLanes(map[string]row{
				"CampaignLanes1":  {"cycles_per_sec": 10},
				"CampaignLanes64": {"cycles_per_sec": 1000},
			}, lanesBase, "CampaignLanes1", "CampaignLanes64", 4)
		}, false},
	} {
		if got := c.check(); got != c.want {
			t.Errorf("%s: verdict %v, want %v", c.name, got, c.want)
		}
	}
}
