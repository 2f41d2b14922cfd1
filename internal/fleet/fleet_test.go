package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"sonar/internal/firrtl"
	"sonar/internal/fuzz"
	"sonar/internal/hdl"
	"sonar/internal/obs"
	"sonar/internal/uarch"
)

// fig3 is the paper's Figure 3 LSU circuit — a valid FIRRTL input for
// analysis-only campaigns.
const fig3 = `
circuit Lsu :
  module Lsu :
    input io_ldq_valid : UInt<1>
    input io_ldq_bits_idx : UInt<5>
    input io_stq_valid : UInt<1>
    input io_stq_bits_idx : UInt<5>
    input io_fwd_valid : UInt<1>
    input io_fwd_bits_idx : UInt<5>
    input sel_ldq : UInt<1>
    input sel_stq : UInt<1>
    output ldq_stq_idx : UInt<5>
    ldq_stq_idx <= mux(sel_ldq, io_ldq_bits_idx, mux(sel_stq, io_stq_bits_idx, io_fwd_bits_idx))
`

// liteSoC elaborates the single-core lite design the fuzz engine tests use;
// it is cheap enough to build per worker.
func liteSoC() *uarch.SoC { return uarch.NewSoC(uarch.BoomConfig(), 1, nil, nil) }

// testRegistry is the DUT registry test servers and workers share.
func testRegistry() map[string]func() *uarch.SoC {
	return map[string]func() *uarch.SoC{"lite": liteSoC}
}

// testShape is the campaign shape used across the service tests: Sonar
// guidance, fixed seed, explicit (Workers, BatchSize) topology.
func testShape(iterations, workers, batch int) fuzz.Shape {
	return fuzz.Shape{
		Iterations: iterations, Seed: 1,
		Retention: true, Selection: true, DirectedMutation: true,
		SecretA: 0, SecretB: 1,
		Workers: workers, BatchSize: batch,
	}
}

// localRun executes the same campaign with the local parallel engine and
// returns its event stream and Stats — the reference every distributed run
// must match byte-for-byte.
func localRun(t *testing.T, shape fuzz.Shape) ([]byte, *fuzz.Stats) {
	t.Helper()
	sink := obs.NewMemorySink()
	opt := shape.Options()
	opt.Observer = obs.New(sink)
	st := fuzz.RunParallelExec(liteExecFactory(), opt)
	return sink.Bytes(), st
}

// liteExecFactory returns a shared-analysis lite-DUT factory in the
// Executor-factory form the engine entry points take.
func liteExecFactory() func() fuzz.Executor {
	mk := fuzz.SharedAnalysisFactory(liteSoC)
	return func() fuzz.Executor { return mk() }
}

// fakeClock is a controller clock the test advances by hand, so lease
// expiry never depends on how long executing a lease takes on the machine
// (or under the race detector).
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func (c *fakeClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.t = c.t.Add(d)
}

// withFakeClock makes ct read its lease clock from a fake clock and returns
// the clock. Call it before the first request.
func withFakeClock(ct *Controller) *fakeClock {
	clk := &fakeClock{t: time.Unix(0, 0)}
	ct.now = clk.now
	return clk
}

// newTestServer starts an in-process campaign server.
func newTestServer(t *testing.T, cfg Config) (*Client, *Controller) {
	t.Helper()
	if cfg.DUTs == nil {
		cfg.DUTs = testRegistry()
	}
	ct := NewController(cfg)
	ts := httptest.NewServer(NewServer(ct))
	t.Cleanup(ts.Close)
	return NewClient(ts.URL), ct
}

// driveCampaign executes every lease the server offers through the HTTP
// API until it stops offering work.
func driveCampaign(t *testing.T, client *Client) {
	t.Helper()
	factory := liteExecFactory()
	for {
		g, err := client.Acquire("test-driver")
		if err != nil {
			t.Fatalf("Acquire: %v", err)
		}
		if g == nil {
			return
		}
		res, err := fuzz.ExecuteLeaseExec(factory, g.Shape, 1, &g.Lease)
		if err != nil {
			t.Fatalf("ExecuteLeaseExec(%s): %v", g.LeaseID, err)
		}
		if err := client.Report(g.LeaseID, res); err != nil {
			t.Fatalf("Report(%s): %v", g.LeaseID, err)
		}
	}
}

// fetchMetrics scrapes and parses the server's /metrics endpoint.
func fetchMetrics(t *testing.T, client *Client) map[string]float64 {
	t.Helper()
	text, err := client.raw("/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	m, err := obs.ParseExposition(string(text))
	if err != nil {
		t.Fatalf("parse exposition: %v", err)
	}
	return m
}

// The API round-trip: submit a campaign, drive its leases over HTTP,
// download result/events/checkpoint — and everything matches the local
// engine byte-for-byte.
func TestAPICampaignRoundTrip(t *testing.T) {
	client, _ := newTestServer(t, Config{})
	shape := testShape(24, 2, 8)

	st, err := client.Submit(&Spec{DUT: "lite", Options: shape})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if st.ID != "c1" || st.Kind != "fuzz" || st.State != "running" {
		t.Fatalf("unexpected campaign status %+v", st)
	}
	if st.Shape == nil || st.Shape.Workers != 2 || st.Shape.BatchSize != 8 {
		t.Fatalf("unexpected effective shape %+v", st.Shape)
	}

	// Renewal works for an outstanding lease, 409s for an unknown one.
	g, err := client.Acquire("w0")
	if err != nil || g == nil {
		t.Fatalf("Acquire: grant=%v err=%v", g, err)
	}
	if g.LeaseID != "c1-r1-s0-a1" {
		t.Errorf("first lease ID = %q, want c1-r1-s0-a1", g.LeaseID)
	}
	if g.DUT != "lite" {
		t.Errorf("lease DUT = %q, want lite", g.DUT)
	}
	if err := client.Renew(g.LeaseID); err != nil {
		t.Errorf("Renew: %v", err)
	}
	if err := client.Renew("c9-r9-s9-a9"); err == nil {
		t.Error("renewing an unknown lease succeeded")
	}
	res, err := fuzz.ExecuteLeaseExec(liteExecFactory(), g.Shape, 1, &g.Lease)
	if err != nil {
		t.Fatalf("ExecuteLeaseExec: %v", err)
	}
	if err := client.Report(g.LeaseID, res); err != nil {
		t.Fatalf("Report: %v", err)
	}
	driveCampaign(t, client)

	st, err = client.Campaign("c1")
	if err != nil {
		t.Fatalf("Campaign: %v", err)
	}
	if st.State != "done" || st.Done != 24 {
		t.Fatalf("campaign did not finish: %+v", st)
	}

	wantEvents, wantStats := localRun(t, shape)
	gotEvents, err := client.Events("c1")
	if err != nil {
		t.Fatalf("Events: %v", err)
	}
	if !bytes.Equal(gotEvents, wantEvents) {
		t.Error("distributed event stream differs from local RunParallelExec stream")
	}
	result, err := client.Result("c1")
	if err != nil {
		t.Fatalf("Result: %v", err)
	}
	gotWire, _ := json.Marshal(result.Stats)
	want := wantStats.Wire()
	wantWire, _ := json.Marshal(&want)
	if !bytes.Equal(gotWire, wantWire) {
		t.Errorf("distributed stats differ from local run:\n%s\nvs\n%s", gotWire, wantWire)
	}

	// The checkpoint download round-trips through the ordinary loader.
	ckpt, err := client.CheckpointFile("c1")
	if err != nil {
		t.Fatalf("CheckpointFile: %v", err)
	}
	path := filepath.Join(t.TempDir(), "c1.ckpt")
	if err := os.WriteFile(path, ckpt, 0o644); err != nil {
		t.Fatal(err)
	}
	cp, err := fuzz.LoadCheckpoint(path)
	if err != nil {
		t.Fatalf("LoadCheckpoint: %v", err)
	}
	if !cp.Complete || cp.DUT == "" {
		t.Errorf("downloaded checkpoint not complete: %+v", cp)
	}

	if _, err := client.Campaign("c42"); err == nil {
		t.Error("fetching an unknown campaign succeeded")
	}
}

// FIRRTL submissions run the §5 identification synchronously.
func TestAPIAnalysisCampaign(t *testing.T) {
	client, _ := newTestServer(t, Config{})
	st, err := client.Submit(&Spec{FIRRTL: fig3})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if st.Kind != "analysis" || st.State != "done" {
		t.Fatalf("unexpected status %+v", st)
	}
	res, err := client.Result(st.ID)
	if err != nil {
		t.Fatalf("Result: %v", err)
	}
	a := res.Analysis
	if a == nil || a.Design != "Lsu" || a.NaiveMuxes != 2 || a.TracedPoints != 1 {
		t.Errorf("unexpected analysis result %+v", a)
	}
	events, err := client.Events(st.ID)
	if err != nil || len(events) != 0 {
		t.Errorf("analysis campaign events = %q, %v; want empty", events, err)
	}
	if _, err := client.CheckpointFile(st.ID); err == nil {
		t.Error("analysis campaign served a checkpoint")
	}
}

// Malformed specs are rejected with 400 before touching any state.
func TestAPISubmitValidation(t *testing.T) {
	client, _ := newTestServer(t, Config{})
	cases := []struct {
		name string
		spec Spec
	}{
		{"malformed firrtl", Spec{FIRRTL: "circuit C :\n  module C :\n    widget a : UInt<1>\n"}},
		{"empty spec", Spec{}},
		{"both dut and firrtl", Spec{DUT: "lite", FIRRTL: fig3}},
		{"unknown dut", Spec{DUT: "zen5", Options: testShape(8, 1, 8)}},
		{"no iterations", Spec{DUT: "lite"}},
		{"dual-core without variant", Spec{DUT: "lite", Options: func() fuzz.Shape {
			s := testShape(8, 1, 8)
			s.DualCore = true
			return s
		}()}},
	}
	for _, tc := range cases {
		_, err := client.Submit(&tc.spec)
		ae, ok := err.(*APIError)
		if !ok || ae.Status != 400 {
			t.Errorf("%s: got %v, want a 400 APIError", tc.name, err)
		}
	}
	if h, err := client.Health(); err != nil || h.Campaigns != 0 {
		t.Errorf("rejected submissions left state behind: %+v, %v", h, err)
	}
}

// An expired lease is re-offered with the next attempt number and the same
// payload; the stale report is rejected and counted.
func TestLeaseExpiryReoffer(t *testing.T) {
	client, ct := newTestServer(t, Config{LeaseTTL: 30 * time.Millisecond})
	clk := withFakeClock(ct)
	if _, err := client.Submit(&Spec{DUT: "lite", Options: testShape(8, 1, 8)}); err != nil {
		t.Fatalf("Submit: %v", err)
	}

	g1, err := client.Acquire("doomed")
	if err != nil || g1 == nil {
		t.Fatalf("Acquire: grant=%v err=%v", g1, err)
	}
	res, err := fuzz.ExecuteLeaseExec(liteExecFactory(), g1.Shape, 1, &g1.Lease)
	if err != nil {
		t.Fatalf("ExecuteLeaseExec: %v", err)
	}
	clk.advance(60 * time.Millisecond) // let the lease expire

	g2, err := client.Acquire("healthy")
	if err != nil || g2 == nil {
		t.Fatalf("re-acquire after expiry: grant=%v err=%v", g2, err)
	}
	if g2.LeaseID != "c1-r1-s0-a2" {
		t.Errorf("re-offered lease ID = %q, want c1-r1-s0-a2", g2.LeaseID)
	}
	b1, _ := json.Marshal(g1.Lease)
	b2, _ := json.Marshal(g2.Lease)
	if !bytes.Equal(b1, b2) {
		t.Error("re-offered lease payload differs from the expired one")
	}

	// The dead worker's late report is rejected; the healthy one's lands.
	if err := client.Report(g1.LeaseID, res); err == nil {
		t.Error("report for an expired lease was accepted")
	}
	if err := client.Report(g2.LeaseID, res); err != nil {
		t.Fatalf("Report on re-offered lease: %v", err)
	}
	st, err := client.Campaign("c1")
	if err != nil || st.State != "done" {
		t.Fatalf("campaign did not complete after re-offer: %+v, %v", st, err)
	}

	m := fetchMetrics(t, client)
	for _, name := range []string{MetricLeasesExpired, MetricStaleReports, obs.MetricWorkerFailures} {
		if m[name] < 1 {
			t.Errorf("%s = %v, want >= 1", name, m[name])
		}
	}
	if m[MetricLeasesGranted] != 2 || m[MetricLeasesCompleted] != 1 {
		t.Errorf("granted/completed = %v/%v, want 2/1", m[MetricLeasesGranted], m[MetricLeasesCompleted])
	}
}

// A shard whose leases keep expiring is abandoned once retries are
// exhausted, and the campaign completes degraded — the distributed analog
// of the local fault-disposition path.
func TestLeaseRetriesExhaustedAbandonShard(t *testing.T) {
	client, ct := newTestServer(t, Config{LeaseTTL: 20 * time.Millisecond, MaxRetries: -1})
	clk := withFakeClock(ct)
	if _, err := client.Submit(&Spec{DUT: "lite", Options: testShape(16, 2, 8)}); err != nil {
		t.Fatalf("Submit: %v", err)
	}

	// Grab shard 0's lease and never report it; MaxRetries < 0 means the
	// first expiry abandons the shard.
	g, err := client.Acquire("doomed")
	if err != nil || g == nil {
		t.Fatalf("Acquire: grant=%v err=%v", g, err)
	}
	if g.Lease.Shard != 0 {
		t.Fatalf("first grant is shard %d, want 0", g.Lease.Shard)
	}
	clk.advance(40 * time.Millisecond)
	driveCampaign(t, client) // sweeps, abandons shard 0, drains shard 1

	st, err := client.Campaign("c1")
	if err != nil || st.State != "done" {
		t.Fatalf("degraded campaign did not complete: %+v, %v", st, err)
	}
	result, err := client.Result("c1")
	if err != nil {
		t.Fatalf("Result: %v", err)
	}
	if got := result.Stats.PerIteration; len(got) != 8 {
		t.Errorf("degraded campaign executed %d iterations, want 8 (shard 0's 8 dropped)", len(got))
	}
	m := fetchMetrics(t, client)
	if m[MetricShardsAbandoned] != 1 {
		t.Errorf("%s = %v, want 1", MetricShardsAbandoned, m[MetricShardsAbandoned])
	}
	_ = ct
}

// The tentpole integration test: a server plus two in-process workers
// produce a byte-identical event stream and identical Stats to a local
// RunParallelExec of the same (Seed, Workers, BatchSize) topology — with and
// without a worker dying mid-campaign.
func TestServerWorkersMatchLocal(t *testing.T) {
	for _, kill := range []bool{false, true} {
		name := "healthy"
		if kill {
			name = "one-worker-killed"
		}
		t.Run(name, func(t *testing.T) {
			shape := testShape(60, 2, 8)
			cfg := Config{}
			if kill {
				cfg.LeaseTTL = 50 * time.Millisecond
			}
			client, _ := newTestServer(t, cfg)
			if _, err := client.Submit(&Spec{DUT: "lite", Options: shape}); err != nil {
				t.Fatalf("Submit: %v", err)
			}

			if kill {
				// Simulate a worker that acquires a lease and dies: the
				// lease is never reported and must expire and be re-offered
				// without perturbing the campaign.
				g, err := client.Acquire("killed-worker")
				if err != nil || g == nil {
					t.Fatalf("Acquire for doomed worker: grant=%v err=%v", g, err)
				}
			}

			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			var wg sync.WaitGroup
			errs := make([]error, 2)
			for i := range errs {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					_, errs[i] = RunWorker(ctx, client, WorkerOptions{
						ID:   fmt.Sprintf("w%d", i),
						Poll: 5 * time.Millisecond,
						DUTs: testRegistry(),
					})
				}(i)
			}

			deadline := time.Now().Add(60 * time.Second)
			for {
				st, err := client.Campaign("c1")
				if err != nil {
					t.Fatalf("Campaign: %v", err)
				}
				if st.State == "done" {
					break
				}
				if time.Now().After(deadline) {
					t.Fatalf("campaign did not complete; status %+v", st)
				}
				time.Sleep(10 * time.Millisecond)
			}
			cancel()
			wg.Wait()
			for i, err := range errs {
				if err != nil {
					t.Errorf("worker %d: %v", i, err)
				}
			}

			wantEvents, wantStats := localRun(t, shape)
			gotEvents, err := client.Events("c1")
			if err != nil {
				t.Fatalf("Events: %v", err)
			}
			if !bytes.Equal(gotEvents, wantEvents) {
				t.Error("distributed event stream differs from local RunParallelExec stream")
			}
			result, err := client.Result("c1")
			if err != nil {
				t.Fatalf("Result: %v", err)
			}
			gotWire, _ := json.Marshal(result.Stats)
			want := wantStats.Wire()
			wantWire, _ := json.Marshal(&want)
			if !bytes.Equal(gotWire, wantWire) {
				t.Error("distributed stats differ from local run")
			}

			m := fetchMetrics(t, client)
			if kill {
				if m[MetricLeasesExpired] < 1 || m[obs.MetricWorkerFailures] < 1 {
					t.Errorf("killed-worker run exposed expired=%v worker_failures=%v, want >= 1",
						m[MetricLeasesExpired], m[obs.MetricWorkerFailures])
				}
				if m[MetricShardsAbandoned] != 0 {
					t.Errorf("killed-worker run abandoned %v shards, want 0 (budget must survive churn)", m[MetricShardsAbandoned])
				}
			}
			if m[MetricCampaignDone+`{campaign="c1"}`] != 1 {
				t.Errorf("campaign done gauge = %v, want 1", m[MetricCampaignDone+`{campaign="c1"}`])
			}
		})
	}
}

// Draining stops lease grants without touching outstanding work.
func TestDrain(t *testing.T) {
	client, _ := newTestServer(t, Config{})
	if _, err := client.Submit(&Spec{DUT: "lite", Options: testShape(8, 1, 8)}); err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if err := client.Drain(true); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	if g, err := client.Acquire("w"); err != nil || g != nil {
		t.Fatalf("draining server offered work: grant=%v err=%v", g, err)
	}
	h, err := client.Health()
	if err != nil || !h.Draining {
		t.Fatalf("health = %+v, %v; want draining", h, err)
	}
	if err := client.Drain(false); err != nil {
		t.Fatalf("Drain(false): %v", err)
	}
	if g, err := client.Acquire("w"); err != nil || g == nil {
		t.Fatalf("un-drained server offered no work: grant=%v err=%v", g, err)
	}
}

// An executable FIRRTL submission (Iterations >= 1) runs as a lane-parallel
// netlist campaign: the controller elaborates the source, grants carry it so
// workers need no registry entry, and the distributed result matches a local
// RunParallelExec over the same design byte-for-byte — with workers running
// at different lane widths, since lease execution on the lane path is
// deterministic in the width.
func TestAPIFirrtlFuzzCampaign(t *testing.T) {
	client, _ := newTestServer(t, Config{})
	shape := testShape(40, 2, 8)

	st, err := client.Submit(&Spec{FIRRTL: fig3, Options: shape})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if st.Kind != "fuzz" || st.State != "running" || st.DUT != "Lsu" {
		t.Fatalf("unexpected campaign status %+v", st)
	}

	// The first grant carries the FIRRTL design itself; workers elaborate it
	// rather than consulting their registry.
	g, err := client.Acquire("w-inspect")
	if err != nil || g == nil {
		t.Fatalf("Acquire: grant=%v err=%v", g, err)
	}
	if g.FIRRTL != fig3 || g.DUT != "Lsu" {
		t.Fatalf("grant lacks the FIRRTL payload: dut=%q firrtl=%d bytes", g.DUT, len(g.FIRRTL))
	}
	factory, err := fuzz.LaneDUTFactory(func() (*hdl.Netlist, error) {
		return firrtl.ParseChecked(g.FIRRTL)
	}, 0, 0)
	if err != nil {
		t.Fatalf("LaneDUTFactory: %v", err)
	}
	res, err := fuzz.ExecuteLeaseExec(factory, g.Shape, 64, &g.Lease)
	if err != nil {
		t.Fatalf("ExecuteLeaseExec: %v", err)
	}
	if err := client.Report(g.LeaseID, res); err != nil {
		t.Fatalf("Report: %v", err)
	}

	// Workers with an empty registry finish the campaign — the FIRRTL branch
	// never consults it — and their mixed lane widths must not perturb the
	// merged result.
	laneWidths := []int{1, 64}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var wg sync.WaitGroup
	errs := make([]error, len(laneWidths))
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = RunWorker(ctx, client, WorkerOptions{
				ID:    fmt.Sprintf("fw%d", i),
				Poll:  5 * time.Millisecond,
				Lanes: laneWidths[i],
				DUTs:  map[string]func() *uarch.SoC{},
			})
		}(i)
	}
	deadline := time.Now().Add(60 * time.Second)
	for {
		st, err = client.Campaign("c1")
		if err != nil {
			t.Fatalf("Campaign: %v", err)
		}
		if st.State == "done" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("campaign did not complete; status %+v", st)
		}
		time.Sleep(10 * time.Millisecond)
	}
	cancel()
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("worker %d: %v", i, err)
		}
	}

	// The local lane-campaign reference over the same source.
	sink := obs.NewMemorySink()
	opt := shape.Options()
	opt.Observer = obs.New(sink)
	wantStats := fuzz.RunParallelExec(factory, opt)
	if len(wantStats.TriggeredPoints) == 0 {
		t.Fatal("reference netlist campaign triggered no contention points")
	}
	if st.Points != len(wantStats.TriggeredPoints) {
		t.Errorf("campaign status reports %d points, local run triggered %d", st.Points, len(wantStats.TriggeredPoints))
	}
	gotEvents, err := client.Events("c1")
	if err != nil {
		t.Fatalf("Events: %v", err)
	}
	if !bytes.Equal(gotEvents, sink.Bytes()) {
		t.Error("distributed event stream differs from local RunParallelExec stream")
	}
	result, err := client.Result("c1")
	if err != nil {
		t.Fatalf("Result: %v", err)
	}
	gotWire, _ := json.Marshal(result.Stats)
	want := wantStats.Wire()
	wantWire, _ := json.Marshal(&want)
	if !bytes.Equal(gotWire, wantWire) {
		t.Errorf("distributed stats differ from local run:\n%s\nvs\n%s", gotWire, wantWire)
	}
}

// muxless is a structurally valid FIRRTL circuit with no arbitration at
// all: the flow audit proves its contention surface empty, so submission
// must be rejected with 400.
const muxless = `
circuit Pass :
  module Pass :
    input io_in : UInt<5>
    output io_out : UInt<5>
    io_out <= io_in
`

// FIRRTL submissions carry the information-flow audit summary, and designs
// whose contention surface is empty are rejected before any campaign state
// is created.
func TestAPIAuditSummaryAndEmptySurfaceRejection(t *testing.T) {
	client, _ := newTestServer(t, Config{})

	st, err := client.Submit(&Spec{FIRRTL: fig3})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if st.Audit == nil {
		t.Fatal("status carries no audit summary")
	}
	if st.Audit.SurfaceCascades != 1 || st.Audit.ErrorFindings != 0 {
		t.Errorf("unexpected audit summary %+v", st.Audit)
	}
	if st.Audit.TaintPairPoints == 0 {
		t.Errorf("fig3 has steerable selects and secret-width data, want taint pairs: %+v", st.Audit)
	}
	res, err := client.Result(st.ID)
	if err != nil {
		t.Fatalf("Result: %v", err)
	}
	if res.Analysis == nil || res.Analysis.Audit == nil {
		t.Fatal("analysis result carries no audit summary")
	}

	_, err = client.Submit(&Spec{FIRRTL: muxless})
	ae, ok := err.(*APIError)
	if !ok || ae.Status != 400 {
		t.Fatalf("empty-surface submission: got %v, want APIError 400", err)
	}

	shape := testShape(8, 1, 8)
	fst, err := client.Submit(&Spec{FIRRTL: fig3, Options: shape})
	if err != nil {
		t.Fatalf("Submit executable: %v", err)
	}
	if fst.Audit == nil || fst.Audit.SurfaceCascades != 1 {
		t.Fatalf("executable FIRRTL campaign carries no audit summary: %+v", fst.Audit)
	}
}
