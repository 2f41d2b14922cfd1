package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"os"
	"strings"
	"testing"

	"sonar/internal/fuzz"
	"sonar/internal/hdl"
)

// tinyIters is the campaign size the tests run every workload at: two
// merge rounds of the sharded shape.
const tinyIters = 2 * shardWorkers * shardBatch

func tinyConfig(traced bool, recorded map[string]string) config {
	if recorded == nil {
		recorded = map[string]string{}
	}
	return config{seed: 3, seconds: 0.01, traced: traced, iters: tinyIters, recorded: recorded, log: io.Discard}
}

// Every workload runs untraced and traced at a tiny size, and every campaign
// passes the correctness gate.
func TestWorkloadsTiny(t *testing.T) {
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			r := measure(w, tinyConfig(traced, nil))
			if r.failed != 0 {
				t.Errorf("%s traced=%v: %d failed campaigns: %v", w.name, traced, r.failed, r.problems)
			}
			if len(r.camps) == 0 || (traced && len(r.traced) == 0) {
				t.Errorf("%s traced=%v: no campaigns measured", w.name, traced)
			}
			if !traced && len(r.setupS) == 0 {
				t.Errorf("%s: no set-up time measured", w.name)
			}
			if traced && value(r.layers, "fuzz.exec_group_calls") == 0 && w.name == "netlist-lanes64" {
				t.Errorf("netlist-lanes64 never reached ExecuteGroup")
			}
		}
	}
}

// A recorded hash that does not match the campaign's Stats.Wire() bytes
// fails the campaign.
func TestCorruptedRecordedHashFails(t *testing.T) {
	w := workloadByName("boom-lite-dual-sharded")
	cfg := tinyConfig(false, nil)
	cfg.recorded[hashKey(w.name, tinyIters, cfg.seed)] = strings.Repeat("0", 64)
	r := measure(w, cfg)
	if r.failed == 0 {
		t.Fatal("a corrupted recorded hash was not reported as a failure")
	}
	if !strings.Contains(strings.Join(r.problems, "\n"), "recorded hash") {
		t.Errorf("problems do not name the recorded hash: %v", r.problems)
	}

	// The same recorded table, corrected, passes.
	good := measure(w, tinyConfig(false, nil))
	cfg.recorded[hashKey(w.name, tinyIters, cfg.seed)] = good.camps[0].out.hash
	if r := measure(w, cfg); r.failed != 0 {
		t.Errorf("the correct recorded hash failed: %v", r.problems)
	}
}

func TestVerify(t *testing.T) {
	ok := outcome{hash: "a", iters: 10}
	none := func(int64) string { return "" }
	cases := []struct {
		name     string
		camps    []campaignSample
		recorded func(int64) string
		twins    map[int64]string
		failed   int
	}{
		{"clean", []campaignSample{{seed: 1, out: ok}, {seed: 1, out: ok}}, none, nil, 0},
		{"incomplete", []campaignSample{{seed: 1, out: outcome{hash: "a", iters: 9}}}, none, nil, 1},
		{"repetition differs", []campaignSample{{seed: 1, out: ok}, {seed: 1, out: outcome{hash: "b", iters: 10}}}, none, nil, 1},
		{"other seed may differ", []campaignSample{{seed: 1, out: ok}, {seed: 2, out: outcome{hash: "b", iters: 10}}}, none, nil, 0},
		{"recorded differs", []campaignSample{{seed: 1, out: ok}}, func(int64) string { return "z" }, nil, 1},
		{"twin differs", []campaignSample{{seed: 1, out: ok}}, none, map[int64]string{1: "z"}, 1},
		{"lease fault", []campaignSample{{seed: 1, out: outcome{hash: "a", iters: 10, leaseFaults: 1}}}, none, nil, 1},
	}
	for _, c := range cases {
		if got, problems := verify(c.camps, 10, c.recorded, c.twins); got != c.failed {
			t.Errorf("%s: failed=%d, want %d (%v)", c.name, got, c.failed, problems)
		}
	}
}

// The layer shares of a traced run, other included, account for every CPU
// sample.
func TestLayerSharesSumToOne(t *testing.T) {
	for _, name := range []string{"boom-lite-dual-sharded", "fleet-lite-dual-sharded"} {
		cfg := tinyConfig(true, nil)
		cfg.seconds = 1 // enough CPU samples in the traced half
		r := measure(workloadByName(name), cfg)
		if r.failed != 0 {
			t.Fatalf("%s: %v", name, r.problems)
		}
		sum := 0.0
		for _, l := range append(append([]string(nil), layers...), gcLayer, otherLayer) {
			s := value(r.layers, l+".share")
			if s < 0 || s > 1 {
				t.Errorf("%s: %s.share = %v", name, l, s)
			}
			sum += s
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Errorf("%s: layer shares sum to %v, want 1", name, sum)
		}
	}
}

func TestClassify(t *testing.T) {
	cases := []struct {
		stack []string
		want  string
	}{
		{[]string{"runtime.mallocgc", "sonar/internal/hdl.(*Signal).Set", "sonar/internal/uarch.(*Core).issue", "sonar/internal/fuzz.(*DUT).Execute"}, "uarch"},
		{[]string{"encoding/json.Marshal", "sonar/internal/fleet.writeJSON", "net/http.HandlerFunc.ServeHTTP"}, "fleet"},
		{[]string{"sonar/internal/isa.(*Program).At", "sonar/internal/monitor.(*pointState).recount"}, "monitor"},
		{[]string{"sonar/internal/hdl/gen.New", "main.main"}, otherLayer},
		{[]string{"sonar/internal/fuzz/faultinject.Hook", "sonar/internal/fuzz.(*worker).runBatch"}, "fuzz"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, gcLayer},
		{[]string{"runtime.futex", "runtime.findRunnable", "runtime.schedule"}, otherLayer},
	}
	for _, c := range cases {
		if got := classify(c.stack); got != c.want {
			t.Errorf("classify(%v) = %q, want %q", c.stack, got, c.want)
		}
	}
}

// The executor probe keeps the lane path: a wrapped GroupExecutor is still a
// GroupExecutor, and a wrapped scalar executor is not.
func TestWrapKeepsGroupExecutor(t *testing.T) {
	f, err := fuzz.LaneDUTFactory(elabNetlist, netlistCycles, netlistHold)
	if err != nil {
		t.Fatal(err)
	}
	p := &execProbe{}
	g, ok := p.wrap(f()).(fuzz.GroupExecutor)
	if !ok || g.GroupWidth() != hdl.Lanes/2 {
		t.Fatalf("wrapped LaneDUT lost its group path (ok=%v)", ok)
	}
	if _, ok := p.wrap(fuzz.SharedAnalysisFactory(fleetRegistry()["boom-lite"])()).(fuzz.GroupExecutor); ok {
		t.Error("wrapped behavioural DUT claims a group path")
	}
}

// The command's last output line is the result object the benchmark
// contract names, and a bad workload is refused without one.
func TestRunOutput(t *testing.T) {
	var out, errb bytes.Buffer
	code := run([]string{"--workload", "boom-lite-dual-sharded", "--seed", "2", "--seconds", "0.01",
		"--trace", "0", "--iters", "32"}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit %d: %s\n%s", code, errb.String(), out.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not JSON: %v", err)
	}
	if len(res) != 4 || res["correct"] == nil || res["attempted"] == nil || res["failed"] == nil || res["metrics"] == nil {
		t.Errorf("result keys: %s", lines[len(lines)-1])
	}
	var ms map[string]metricValue
	if err := json.Unmarshal(res["metrics"], &ms); err != nil {
		t.Fatal(err)
	}
	want := []string{"iters_per_s", "iters_per_cpu_s", "setup_s", "allocs_per_iter"}
	for _, name := range want {
		if ms[name].Value <= 0 || ms[name].Unit == "" {
			t.Errorf("metric %s = %+v", name, ms[name])
		}
	}
	if len(ms) != len(want) {
		t.Errorf("metrics %v, want exactly %v", ms, want)
	}

	out.Reset()
	if code := run([]string{"--workload", "nope"}, &out, &errb); code == 0 || out.Len() != 0 {
		t.Errorf("unknown workload: exit %d, output %q", code, out.String())
	}
}

// asMain makes the test binary run as the perfbench command, so that
// runEach can start it as a child process.
const asMain = "PERFBENCH_TEST_AS_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(asMain) == "1" {
		main()
	}
	os.Exit(m.Run())
}

// --workload all measures every workload in a child process and merges the
// results into one line with workload-prefixed metric names.
func TestRunAllMergesChildren(t *testing.T) {
	t.Setenv(asMain, "1")
	var out, errb bytes.Buffer
	if code := run([]string{"--seed", "2", "--seconds", "0.01", "--iters", "32"}, &out, &errb); code != 0 {
		t.Fatalf("exit %d: %s\n%s", code, errb.String(), out.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res output
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not JSON: %v", err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < len(workloads) {
		t.Errorf("result %+v", res)
	}
	for _, w := range workloads {
		for _, name := range []string{"iters_per_s", "iters_per_cpu_s", "setup_s", "allocs_per_iter"} {
			if res.Metrics[w.name+"."+name].Value <= 0 {
				t.Errorf("metric %s.%s missing", w.name, name)
			}
		}
	}
	if n := strings.Count(out.String(), "perfbench: machine "); n != len(workloads) {
		t.Errorf("%d machine lines, want one per workload", n)
	}
}

func value(ms []metric, name string) float64 {
	for _, m := range ms {
		if m.name == name {
			return m.value
		}
	}
	return math.NaN()
}
