package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
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
// must match byte-for-byte — and its Observer.
func localRun(t *testing.T, shape fuzz.Shape) ([]byte, *fuzz.Stats, *obs.Observer) {
	t.Helper()
	sink := obs.NewMemorySink()
	opt := shape.Options()
	opt.Observer = obs.New(sink)
	st := fuzz.RunParallelExec(liteExecFactory(), opt)
	return sink.Bytes(), st, opt.Observer
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
	e := liteExecFactory()()
	for {
		g, err := client.Acquire("test-driver", nil)
		if err != nil {
			t.Fatalf("Acquire: %v", err)
		}
		if g == nil {
			return
		}
		res, _, err := fuzz.ExecuteLease(e, g.Shape, 1, &g.Lease, nil)
		if err != nil {
			t.Fatalf("ExecuteLease(%s): %v", g.LeaseID, err)
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
	g, err := client.Acquire("w0", nil)
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
	res, _, err := fuzz.ExecuteLease(liteExecFactory()(), g.Shape, 1, &g.Lease, nil)
	if err != nil {
		t.Fatalf("ExecuteLease: %v", err)
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

	wantEvents, wantStats, _ := localRun(t, shape)
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

// The controller keeps the last keepFinished finished campaigns: finishing
// one more evicts the oldest, whose requests then answer 410, while IDs it
// never handed out still answer 404.
func TestFinishedCampaignsEvicted(t *testing.T) {
	client, _ := newTestServer(t, Config{})
	for i := 0; i <= keepFinished; i++ {
		if _, err := client.Submit(&Spec{FIRRTL: fig3}); err != nil {
			t.Fatalf("Submit %d: %v", i+1, err)
		}
	}
	last := fmt.Sprintf("c%d", keepFinished+1)
	if _, err := client.Result(last); err != nil {
		t.Errorf("Result(%s): %v", last, err)
	}
	for id, status := range map[string]int{"c1": http.StatusGone, "c0": http.StatusNotFound, "c01": http.StatusNotFound, fmt.Sprintf("c%d", keepFinished+2): http.StatusNotFound} {
		_, err := client.Result(id)
		if ae, ok := err.(*APIError); !ok || ae.Status != status {
			t.Errorf("Result(%s) error %v, want status %d", id, err, status)
		}
	}
	if list, err := client.Campaigns(); err != nil || len(list) != keepFinished {
		t.Errorf("controller lists %d campaigns (%v), want the %d kept", len(list), err, keepFinished)
	}
	m := fetchMetrics(t, client)
	if _, ok := m[MetricCampaignDone+`{campaign="c1"}`]; ok {
		t.Error("evicted campaign c1 still has gauges")
	}
	if m[MetricCampaignDone+`{campaign="`+last+`"}`] != 1 {
		t.Errorf("kept campaign %s has no done gauge", last)
	}
}

// A fuzz campaign's retention counters, which only the report replay
// feeds, are published on GET /metrics under its campaign label, equal to
// its Observer's, and leave the exposition when the campaign is evicted.
func TestMetricsPublishCampaignMutations(t *testing.T) {
	client, ct := newTestServer(t, Config{})
	if _, err := client.Submit(&Spec{DUT: "lite", Options: testShape(24, 2, 8)}); err != nil {
		t.Fatalf("Submit: %v", err)
	}
	driveCampaign(t, client)
	ct.mu.Lock()
	offered, accepted := ct.byID["c1"].observer.Mutations()
	ct.mu.Unlock()

	m := fetchMetrics(t, client)
	for name, want := range map[string]int64{obs.MetricMutationsOffered: offered, obs.MetricMutationsAccepted: accepted} {
		got, ok := m[name+`{campaign="c1"}`]
		if !ok || got != float64(want) || want == 0 {
			t.Errorf("/metrics %s{campaign=\"c1\"} = %v (listed %v), campaign Observer %d; want equal and nonzero", name, got, ok, want)
		}
	}

	for i := 0; i < keepFinished; i++ {
		if _, err := client.Submit(&Spec{FIRRTL: fig3}); err != nil {
			t.Fatalf("Submit %d: %v", i+2, err)
		}
	}
	m = fetchMetrics(t, client)
	for _, name := range []string{obs.MetricMutationsOffered, obs.MetricMutationsAccepted} {
		if _, ok := m[name+`{campaign="c1"}`]; ok {
			t.Errorf("evicted campaign c1 still lists %s", name)
		}
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

// A request body over the server's cap is refused with 413 before it is
// buffered whole, on both the submit and the report route; ordinary submit
// and report bodies, far below the cap, still go through afterwards.
func TestOversizeBodyRejected(t *testing.T) {
	client, _ := newTestServer(t, Config{})
	huge := Spec{FIRRTL: strings.Repeat(" ", maxBodyBytes)}
	if _, err := client.Submit(&huge); !isStatus(err, http.StatusRequestEntityTooLarge) {
		t.Errorf("oversize submit: got %v, want a 413 APIError", err)
	}
	one, err := json.Marshal(fuzz.OutcomeWire{})
	if err != nil {
		t.Fatal(err)
	}
	bloated := &fuzz.LeaseResult{Outcomes: make([]fuzz.OutcomeWire, maxBodyBytes/len(one)+1)}
	if err := client.Report("c1-r1-s0-a1", bloated); !isStatus(err, http.StatusRequestEntityTooLarge) {
		t.Errorf("oversize report: got %v, want a 413 APIError", err)
	}
	if _, err := client.Submit(&Spec{DUT: "lite", Options: testShape(8, 1, 8)}); err != nil {
		t.Fatalf("ordinary submit after oversize bodies: %v", err)
	}
	driveCampaign(t, client)
	if st, err := client.Campaign("c1"); err != nil || st.State != "done" {
		t.Errorf("campaign after ordinary reports: %+v, %v", st, err)
	}
}

// isStatus reports whether err is an APIError with the given status.
func isStatus(err error, status int) bool {
	ae, ok := err.(*APIError)
	return ok && ae.Status == status
}

// An expired lease is re-offered with the next attempt number and the same
// payload; the stale report is rejected and counted.
func TestLeaseExpiryReoffer(t *testing.T) {
	client, ct := newTestServer(t, Config{LeaseTTL: 30 * time.Millisecond})
	clk := withFakeClock(ct)
	if _, err := client.Submit(&Spec{DUT: "lite", Options: testShape(8, 1, 8)}); err != nil {
		t.Fatalf("Submit: %v", err)
	}

	g1, err := client.Acquire("doomed", nil)
	if err != nil || g1 == nil {
		t.Fatalf("Acquire: grant=%v err=%v", g1, err)
	}
	res, _, err := fuzz.ExecuteLease(liteExecFactory()(), g1.Shape, 1, &g1.Lease, nil)
	if err != nil {
		t.Fatalf("ExecuteLease: %v", err)
	}
	clk.advance(60 * time.Millisecond) // let the lease expire

	g2, err := client.Acquire("healthy", nil)
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
// exhausted — on the third expiry, the bound the local engine shares — and
// the campaign completes degraded: the distributed analog of the local
// fault-disposition path.
func TestLeaseRetriesExhaustedAbandonShard(t *testing.T) {
	client, ct := newTestServer(t, Config{LeaseTTL: 20 * time.Millisecond})
	clk := withFakeClock(ct)
	if _, err := client.Submit(&Spec{DUT: "lite", Options: testShape(16, 2, 8)}); err != nil {
		t.Fatalf("Submit: %v", err)
	}

	// Grab shard 0's lease and let it expire, three times over; the third
	// expiry abandons the shard.
	for a := 1; a <= 3; a++ {
		g, err := client.Acquire("doomed", nil)
		if err != nil || g == nil {
			t.Fatalf("Acquire %d: grant=%v err=%v", a, g, err)
		}
		if want := fmt.Sprintf("c1-r1-s0-a%d", a); g.LeaseID != want {
			t.Fatalf("grant %d is %s, want %s", a, g.LeaseID, want)
		}
		clk.advance(40 * time.Millisecond)
	}
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
			client, ct := newTestServer(t, cfg)
			grants := &grantLog{byWorker: make(map[string][]fuzz.Lease)}
			client.HTTPClient = &http.Client{Transport: grants}
			if _, err := client.Submit(&Spec{DUT: "lite", Options: shape}); err != nil {
				t.Fatalf("Submit: %v", err)
			}

			if kill {
				// Simulate a worker that acquires a lease and dies: the
				// lease is never reported and must expire and be re-offered
				// without perturbing the campaign.
				g, err := client.Acquire("killed-worker", nil)
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

			wantEvents, wantStats, local := localRun(t, shape)
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

			// The server replays every accepted report once, so its
			// retention decisions count exactly a fault-free local run's.
			ct.mu.Lock()
			server := ct.byID["c1"].observer
			ct.mu.Unlock()
			for _, name := range []string{obs.MetricMutationsOffered, obs.MetricMutationsAccepted} {
				got, want := server.Metrics.Counter(name, "").Value(), local.Metrics.Counter(name, "").Value()
				if got != want || want == 0 {
					t.Errorf("server %s = %d, local run %d (want equal and nonzero)", name, got, want)
				}
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

			// Each worker's lease after its first ships only the seeds
			// merged since its previous one, so no silent fallback to full
			// leases can pass.
			deltas := 0
			for i := range errs {
				leases := grants.byWorker[fmt.Sprintf("w%d", i)]
				for k := 1; k < len(leases); k++ {
					prev, l := &leases[k-1], &leases[k]
					want := fuzz.CorpusRef{Len: prev.CorpusFrom.Len + len(prev.Corpus.Seeds), Digest: prev.CorpusDigest}
					if l.CorpusFrom != want {
						t.Errorf("worker %d round %d lease starts at corpus %+v, want its holding %+v", i, l.Round, l.CorpusFrom, want)
					}
					if l.Round > 1 && l.CorpusFrom.Len > 0 {
						deltas++
					}
				}
			}
			if deltas == 0 {
				t.Error("no worker received a lease with corpus_from > 0 after round 1")
			}
		})
	}
}

// grantLog is a client transport that records the lease of every grant the
// server answers an acquire with, by the requesting worker.
type grantLog struct {
	mu       sync.Mutex
	byWorker map[string][]fuzz.Lease
}

func (gl *grantLog) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.URL.Path != "/api/v1/leases/acquire" {
		return http.DefaultTransport.RoundTrip(req)
	}
	body, err := req.GetBody()
	if err != nil {
		return nil, err
	}
	var ar acquireRequest
	if err := json.NewDecoder(body).Decode(&ar); err != nil {
		return nil, err
	}
	resp, err := http.DefaultTransport.RoundTrip(req)
	if err != nil || resp.StatusCode != http.StatusOK {
		return resp, err
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	resp.Body = io.NopCloser(bytes.NewReader(b))
	var g LeaseGrant
	if err := json.Unmarshal(b, &g); err != nil {
		return nil, err
	}
	gl.mu.Lock()
	defer gl.mu.Unlock()
	gl.byWorker[ar.Worker] = append(gl.byWorker[ar.Worker], g.Lease)
	return resp, nil
}

// serveLease acquires one lease for a worker holding what cache holds,
// executes it, and reports it; it reports whether there was work.
func serveLease(t *testing.T, client *Client, cache *leaseCache) (*LeaseGrant, bool) {
	t.Helper()
	g, err := client.Acquire("caching-worker", cache.holding())
	if err != nil {
		t.Fatalf("Acquire: %v", err)
	}
	if g == nil {
		return nil, false
	}
	e, err := cache.executor(g)
	if err != nil {
		t.Fatalf("executor(%s): %v", g.LeaseID, err)
	}
	res, err := cache.execute(e, g, 1)
	if err != nil {
		t.Fatalf("execute(%s): %v", g.LeaseID, err)
	}
	if err := client.Report(g.LeaseID, res); err != nil {
		t.Fatalf("Report(%s): %v", g.LeaseID, err)
	}
	return g, true
}

// restoreCampaign opens a fuzz campaign on ct from a checkpoint under the
// given ID, the way a restarted server continues a downloaded checkpoint.
func restoreCampaign(t *testing.T, ct *Controller, id, dut string, cp *fuzz.Checkpoint) {
	t.Helper()
	ct.mu.Lock()
	defer ct.mu.Unlock()
	sink := obs.NewMemorySink()
	opt := cp.CampaignOptions()
	opt.Observer = obs.New(sink)
	lc, err := fuzz.ResumeLeaseCoordinator(ct.factoryLocked(dut)(), opt, cp)
	if err != nil {
		t.Fatalf("ResumeLeaseCoordinator: %v", err)
	}
	c := &campaign{id: id, kind: "fuzz", dutName: dut, lc: lc, sink: sink, granted: make(map[int]*lease)}
	ct.campaigns = append(ct.campaigns, c)
	ct.byID[id] = c
	ct.running.Add(1)
}

// A worker's held corpus stays valid across a server restart: the restarted
// server rebuilds every seed's wire form from the checkpoint, the digest
// chain over them matches the one the worker's holding was built on, and
// the worker's next lease ships only the seeds it lacks. The resumed
// campaign still ends in the local engine's Stats.
func TestHeldCorpusSurvivesServerRestart(t *testing.T) {
	shape := testShape(60, 2, 8)
	client, _ := newTestServer(t, Config{})
	if _, err := client.Submit(&Spec{DUT: "lite", Options: shape}); err != nil {
		t.Fatalf("Submit: %v", err)
	}
	cache := newLeaseCache(testRegistry())
	for {
		st, err := client.Campaign("c1")
		if err != nil {
			t.Fatalf("Campaign: %v", err)
		}
		if st.Round >= 2 && st.CorpusSize > 0 {
			break
		}
		if _, ok := serveLease(t, client, cache); !ok {
			t.Fatalf("campaign ran out of work at %+v", st)
		}
	}
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

	restarted, ct := newTestServer(t, Config{})
	restoreCampaign(t, ct, "c1", "lite", cp)
	held := cache.holding()
	if held == nil || held.Campaign != "c1" || held.Len == 0 {
		t.Fatalf("worker holds %+v before the restart, want a non-empty c1 prefix", held)
	}
	g, ok := serveLease(t, restarted, cache)
	if !ok {
		t.Fatal("restarted server offered no work")
	}
	if g.Lease.CorpusFrom != held.CorpusRef {
		t.Errorf("first lease after the restart starts at %+v, want the worker's holding %+v", g.Lease.CorpusFrom, held.CorpusRef)
	}
	for {
		if _, ok := serveLease(t, restarted, cache); !ok {
			break
		}
	}

	_, wantStats, _ := localRun(t, shape)
	result, err := restarted.Result("c1")
	if err != nil {
		t.Fatalf("Result: %v", err)
	}
	gotWire, _ := json.Marshal(result.Stats)
	want := wantStats.Wire()
	wantWire, _ := json.Marshal(&want)
	if !bytes.Equal(gotWire, wantWire) {
		t.Error("resumed campaign's stats differ from local run")
	}
}

// A worker keeps one executor per registry design and one FIRRTL executor:
// serving a second FIRRTL campaign replaces the first campaign's executor
// rather than caching both.
func TestWorkerKeepsOneFirrtlExecutor(t *testing.T) {
	cache := newLeaseCache(testRegistry())
	executor := func(g *LeaseGrant) fuzz.Executor {
		t.Helper()
		e, err := cache.executor(g)
		if err != nil {
			t.Fatalf("executor(%s): %v", g.Campaign, err)
		}
		return e
	}
	c1 := &LeaseGrant{Campaign: "c1", DUT: "Lsu", FIRRTL: fig3}
	c2 := &LeaseGrant{Campaign: "c2", DUT: "Lsu", FIRRTL: fig3}
	e1 := executor(c1)
	if executor(c1) != e1 {
		t.Error("a second lease of one FIRRTL campaign elaborated a new executor")
	}
	e2 := executor(c2)
	if e2 == e1 {
		t.Error("two FIRRTL campaigns share one executor")
	}
	lite := executor(&LeaseGrant{Campaign: "c3", DUT: "lite"})
	if executor(&LeaseGrant{Campaign: "c4", DUT: "lite"}) != lite {
		t.Error("two campaigns of one registry design elaborated two executors")
	}
	if cache.firrtl != e2 || cache.firrtlCampaign != "c2" || len(cache.named) != 1 {
		t.Errorf("worker holds FIRRTL executor of %q (latest: %v) and %d named executors; want only c2's and one",
			cache.firrtlCampaign, cache.firrtl == e2, len(cache.named))
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
	if g, err := client.Acquire("w", nil); err != nil || g != nil {
		t.Fatalf("draining server offered work: grant=%v err=%v", g, err)
	}
	h, err := client.Health()
	if err != nil || !h.Draining {
		t.Fatalf("health = %+v, %v; want draining", h, err)
	}
	if err := client.Drain(false); err != nil {
		t.Fatalf("Drain(false): %v", err)
	}
	if g, err := client.Acquire("w", nil); err != nil || g == nil {
		t.Fatalf("un-drained server offered no work: grant=%v err=%v", g, err)
	}
}

// An acquire that finds every shard of the round leased out waits for the
// round's last report and comes back with a lease of the next round, where
// it used to answer "no work" and leave the worker to poll; with nothing
// outstanding it answers at once.
func TestAcquireWaitsForRoundClose(t *testing.T) {
	client, _ := newTestServer(t, Config{})
	start := time.Now()
	if g, err := client.Acquire("w", nil); err != nil || g != nil {
		t.Fatalf("idle server: grant=%v err=%v", g, err)
	}
	if d := time.Since(start); d >= maxAcquireWait/2 {
		t.Errorf("acquire on an idle server took %v; want an immediate answer", d)
	}
	if _, err := client.Submit(&Spec{DUT: "lite", Options: testShape(32, 2, 8)}); err != nil {
		t.Fatalf("Submit: %v", err)
	}
	var gs []*LeaseGrant
	for _, w := range []string{"w0", "w1"} {
		g, err := client.Acquire(w, nil)
		if err != nil || g == nil {
			t.Fatalf("Acquire(%s): grant=%v err=%v", w, g, err)
		}
		gs = append(gs, g)
	}
	waited := make(chan *LeaseGrant, 1)
	go func() {
		g, err := client.Acquire("waiter", nil)
		if err != nil {
			t.Errorf("waiting Acquire: %v", err)
		}
		waited <- g
	}()
	time.Sleep(50 * time.Millisecond) // let the waiter's request reach the server
	e := liteExecFactory()()
	for _, g := range gs {
		select {
		case w := <-waited:
			t.Fatalf("acquire answered %v before the round closed", w)
		default:
		}
		res, _, err := fuzz.ExecuteLease(e, g.Shape, 1, &g.Lease, nil)
		if err != nil {
			t.Fatalf("ExecuteLease(%s): %v", g.LeaseID, err)
		}
		if err := client.Report(g.LeaseID, res); err != nil {
			t.Fatalf("Report(%s): %v", g.LeaseID, err)
		}
	}
	select {
	case g := <-waited:
		if g == nil || g.Lease.Round != 2 {
			t.Fatalf("waiting acquire got %+v; want a round-2 lease", g)
		}
	case <-time.After(maxAcquireWait / 2):
		t.Fatal("the round's last report did not wake the waiting acquire")
	}
}

// The client reads every response to its end, so keep-alive connections
// serve a whole session, chunked responses (grants with a corpus, results)
// included; a connection per response would cost a TCP handshake per lease.
// (The transport may still dial now and then, when a connection is not back
// in its pool in time, so the bound is loose.)
func TestClientReusesConnection(t *testing.T) {
	ct := NewController(Config{DUTs: testRegistry()})
	ts := httptest.NewServer(NewServer(ct))
	t.Cleanup(ts.Close)
	var dials atomic.Int32
	tr := &http.Transport{DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
		dials.Add(1)
		return (&net.Dialer{}).DialContext(ctx, network, addr)
	}}
	t.Cleanup(tr.CloseIdleConnections)
	client := NewClient(ts.URL)
	client.HTTPClient = &http.Client{Transport: tr}

	st, err := client.Submit(&Spec{DUT: "lite", Options: testShape(48, 2, 8)})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	driveCampaign(t, client)
	const results = 20
	for i := 0; i < results; i++ {
		if _, err := client.Result(st.ID); err != nil {
			t.Fatalf("Result: %v", err)
		}
	}
	if n := dials.Load(); n > results/2 {
		t.Errorf("the client dialled %d connections for one sequential session with %d result downloads; want about one", n, results)
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
	g, err := client.Acquire("w-inspect", nil)
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
	res, _, err := fuzz.ExecuteLease(factory(), g.Shape, 64, &g.Lease, nil)
	if err != nil {
		t.Fatalf("ExecuteLease: %v", err)
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
