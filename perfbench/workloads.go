package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"sonar/internal/boom"
	"sonar/internal/fleet"
	"sonar/internal/fuzz"
	"sonar/internal/hdl"
	"sonar/internal/hdl/gen"
	"sonar/internal/obs"
	"sonar/internal/sim"
	"sonar/internal/trace"
	"sonar/internal/uarch"
)

// workload is one campaign shape the benchmark measures. Design parameters
// are fixed; only the campaign seed comes from the command line.
type workload struct {
	name string
	why  string
	// iters is the campaign size in fuzzing iterations (one testcase run
	// under both secrets).
	iters int
	// seeds is the number of campaign seeds one run covers; one pass over
	// them is the run's smallest unit of work.
	seeds int
	// hashOf names the workload whose recorded Stats.Wire() hashes this one
	// must reproduce: the fleet workload must equal its local twin.
	hashOf string
	// setup builds everything a campaign needs and returns a campaigner
	// ready to run campaigns; the probes are nil in untraced runs.
	setup func(seed int64, pr *probes) (campaigner, error)
	// design elaborates the workload's netlist, for timing trace.Analyze.
	design func() (*hdl.Netlist, error)
}

// probes are the traced run's instruments; nil in untraced runs.
type probes struct {
	exec *execProbe
	http *httpProbe
}

func (p *probes) execProbe() *execProbe {
	if p == nil {
		return nil
	}
	return p.exec
}

func (p *probes) httpProbe() *httpProbe {
	if p == nil {
		return nil
	}
	return p.http
}

// campaigner runs whole campaigns over one set-up.
type campaigner interface {
	run(seed int64, iters int) (outcome, error)
	close()
}

// outcome summarizes one finished campaign.
type outcome struct {
	hash     string // sha256 of the JSON encoding of Stats.Wire()
	iters    int
	points   int
	corpus   int
	findings int
	cycles   int64
	// leaseFaults counts the campaign's expired leases and abandoned shards
	// (fleet only).
	leaseFaults int
}

func summarize(w *fuzz.StatsWire) (outcome, error) {
	b, err := json.Marshal(w)
	if err != nil {
		return outcome{}, fmt.Errorf("encode stats: %w", err)
	}
	sum := sha256.Sum256(b)
	return outcome{
		hash:     hex.EncodeToString(sum[:]),
		iters:    len(w.PerIteration),
		points:   len(w.Triggered),
		corpus:   w.CorpusSize,
		findings: len(w.Findings),
		cycles:   w.ExecutedCycles,
	}, nil
}

// netlistDesign is the netlist-lanes64 design: an arbiter-dense generated
// netlist whose monitored cones cover most of its nodes.
var netlistDesign = gen.Config{Seed: 11, Nodes: 384, Regs: 16, Arbiters: 32, MaxWidth: 4, PrimShare: -1}

const (
	netlistCycles = 1024
	netlistHold   = 8
)

func elabSoC(newSoC func() *uarch.SoC) func() (*hdl.Netlist, error) {
	return func() (*hdl.Netlist, error) { return newSoC().Net, nil }
}

func elabNetlist() (*hdl.Netlist, error) { return gen.New(netlistDesign) }

// sonarOptions is the full Sonar strategy at a given topology; each
// campaign sets its own size and seed.
func sonarOptions(workers, batch int, dual bool) fuzz.Options {
	o := fuzz.SonarOptions(0)
	o.Workers, o.BatchSize, o.DualCore = workers, batch, dual
	return o
}

// The sharded shape the local twin and the fleet workload share.
const (
	shardWorkers = 4
	shardBatch   = 8
)

var workloads = []*workload{
	{
		name:  "boom-paper",
		why:   "the paper's full BOOM at paper scale: monitor work and GC dominate, and set-up (elaboration plus trace.Analyze) is real",
		iters: 3000,
		seeds: 4,
		setup: func(seed int64, pr *probes) (campaigner, error) {
			f := fuzz.SharedAnalysisFactory(boom.New)
			return newLocal(func() fuzz.Executor { return f() }, sonarOptions(1, 0, false), pr), nil
		},
		design: elabSoC(boom.New),
	},
	{
		name:  "boom-lite-dual-sharded",
		why:   "behavioural stepping of two cores plus about 94 coordinator merge rounds with little monitor work; the local twin of the fleet workload",
		iters: 3000,
		seeds: 24,
		setup: func(seed int64, pr *probes) (campaigner, error) {
			f := fuzz.SharedAnalysisFactory(boom.NewDualLite)
			return newLocal(func() fuzz.Executor { return f() },
				sonarOptions(shardWorkers, shardBatch, true), pr), nil
		},
		design: elabSoC(boom.NewDualLite),
	},
	{
		name:  "netlist-lanes64",
		why:   "the bit-parallel netlist evaluator and lane monitor with no behavioural core and almost no corpus work",
		iters: 3000,
		seeds: 7,
		setup: func(seed int64, pr *probes) (campaigner, error) {
			f, err := fuzz.LaneDUTFactory(elabNetlist, netlistCycles, netlistHold)
			if err != nil {
				return nil, err
			}
			opt := sonarOptions(1, 0, false)
			opt.Lanes = hdl.Lanes
			return newLocal(f, opt, pr), nil
		},
		design: elabNetlist,
	},
	{
		name:   "fleet-lite-dual-sharded",
		why:    "the sharded dual-core campaign submitted to an in-process campaign server over loopback HTTP: lease serialization and the service layer",
		iters:  3000,
		seeds:  5,
		hashOf: "boom-lite-dual-sharded",
		setup: func(seed int64, pr *probes) (campaigner, error) {
			return newFleet(shapeOf(sonarOptions(shardWorkers, shardBatch, true)), seed, pr)
		},
		design: elabSoC(boom.NewDualLite),
	},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// localCampaign runs campaigns through fuzz.RunParallelExec over executors
// built once at set-up and handed out again to every campaign: the engine
// resets an executor before each execution, so campaign results do not
// depend on what it ran before (the recorded hashes, taken on fresh
// executors, check that).
type localCampaign struct {
	opt   fuzz.Options
	build func() fuzz.Executor
	pr    *probes

	mu   sync.Mutex
	pool []fuzz.Executor
	next int
	// compile is the lane compile stats of a netlist executor.
	compile *compileInfo
}

// compileInfo is what the optimizing sim compile did to a netlist design.
type compileInfo struct {
	seconds             float64 // median LaneDUT build time
	spilled, eliminated int
}

func newLocal(build func() fuzz.Executor, opt fuzz.Options, pr *probes) *localCampaign {
	workers := opt.Workers
	if workers < 1 {
		workers = 1
	}
	c := &localCampaign{opt: opt, build: build, pr: pr}
	var buildTimes []float64
	for i := 0; i < workers; i++ {
		start := time.Now()
		e := build()
		buildTimes = append(buildTimes, time.Since(start).Seconds())
		if cs, ok := e.(interface{ CompileStats() sim.CompileStats }); ok {
			s := cs.CompileStats()
			c.compile = &compileInfo{spilled: s.Spilled, eliminated: s.Eliminated + s.Collapsed + s.Fused}
		}
		c.pool = append(c.pool, pr.execProbe().wrap(e))
	}
	if c.compile != nil {
		c.compile.seconds = median(buildTimes)
	}
	return c
}

// newExec hands out the pre-built executors; a campaign asking for more
// (fault-recovery replacements) gets fresh ones.
func (c *localCampaign) newExec() fuzz.Executor {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.next < len(c.pool) {
		e := c.pool[c.next]
		c.next++
		return e
	}
	return c.pr.execProbe().wrap(c.build())
}

func (c *localCampaign) run(seed int64, iters int) (outcome, error) {
	c.mu.Lock()
	c.next = 0
	c.mu.Unlock()
	opt := c.opt
	opt.Seed, opt.Iterations = seed, iters
	st := fuzz.RunParallelExec(c.newExec, opt)
	w := st.Wire()
	return summarize(&w)
}

func (c *localCampaign) close() {}

// shapeOf is the fleet submission shape of a local campaign's options.
func shapeOf(o fuzz.Options) fuzz.Shape {
	return fuzz.Shape{
		Iterations: o.Iterations, Seed: o.Seed,
		Retention: o.Retention, Selection: o.Selection, DirectedMutation: o.DirectedMutation,
		DualCore: o.DualCore, SecretA: o.SecretA, SecretB: o.SecretB,
		KeepFindings: o.KeepFindings, RandomDirection: o.RandomDirection,
		Workers: o.Workers, BatchSize: o.BatchSize,
	}
}

// fleetRegistry is the DUT registry the fleet server and its workers share.
// A dual-core spec for "boom-lite" resolves to "boom-lite-dual".
func fleetRegistry() map[string]func() *uarch.SoC {
	return map[string]func() *uarch.SoC{"boom-lite": boom.NewLite, "boom-lite-dual": boom.NewDualLite}
}

// fleetPoll is how long an idle worker loop waits before asking for a lease
// again. Within a merge round a worker that finished its shard waits for
// the round's last shard, so the poll interval bounds that wait.
const fleetPoll = 5 * time.Millisecond

// campaignTimeout bounds one campaign's wall time.
const campaignTimeout = 90 * time.Second

// fleetCampaign is an in-process campaign server on a loopback listener
// with runtime.NumCPU() worker loops. Campaigns are submitted and their
// results fetched over HTTP; the submitter waits for completion on the
// in-process Controller, so only the worker loops put load on the server.
type fleetCampaign struct {
	shape  fuzz.Shape
	ct     *fleet.Controller
	client *fleet.Client
	srv    *http.Server
	served chan error
	tr     *http.Transport

	cancel  context.CancelFunc
	wg      sync.WaitGroup
	exited  atomic.Int32
	errMu   sync.Mutex
	workErr error
}

// newFleet starts the server and the worker loops, then runs one merge
// round of a warm-up campaign so the server and the workers have
// elaborated and analyzed the design before the first measured campaign.
func newFleet(shape fuzz.Shape, seed int64, pr *probes) (*fleetCampaign, error) {
	reg := fleetRegistry()
	f := &fleetCampaign{shape: shape, ct: fleet.NewController(fleet.Config{DUTs: reg}), served: make(chan error, 1)}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("fleet listen: %w", err)
	}
	f.srv = &http.Server{Handler: pr.httpProbe().handler(fleet.NewServer(f.ct))}
	go func() { f.served <- f.srv.Serve(ln) }()
	workers := runtime.NumCPU()
	f.tr = &http.Transport{MaxIdleConnsPerHost: workers + 2}
	f.client = fleet.NewClient("http://" + ln.Addr().String())
	f.client.HTTPClient = &http.Client{Transport: pr.httpProbe().transport(f.tr)}
	if _, err := f.client.Health(); err != nil {
		f.close()
		return nil, fmt.Errorf("fleet health: %w", err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	f.cancel = cancel
	for i := 0; i < workers; i++ {
		f.wg.Add(1)
		go func(i int) {
			defer f.wg.Done()
			defer f.exited.Add(1)
			_, err := fleet.RunWorker(ctx, f.client, fleet.WorkerOptions{
				ID: fmt.Sprintf("w%d", i), Poll: fleetPoll, DUTs: reg,
			})
			if err != nil {
				f.errMu.Lock()
				f.workErr = errors.Join(f.workErr, err)
				f.errMu.Unlock()
			}
		}(i)
	}

	if _, err := f.run(seed, shape.Workers*shape.BatchSize); err != nil {
		f.close()
		return nil, fmt.Errorf("fleet warm-up: %w", err)
	}
	return f, nil
}

// run submits one campaign to the service and returns its outcome.
func (f *fleetCampaign) run(seed int64, iters int) (outcome, error) {
	faults0, err := f.leaseFaults()
	if err != nil {
		return outcome{}, err
	}
	shape := f.shape
	shape.Seed, shape.Iterations = seed, iters
	st, err := f.client.Submit(&fleet.Spec{DUT: "boom-lite", Options: shape})
	if err != nil {
		return outcome{}, fmt.Errorf("submit: %w", err)
	}
	deadline := time.Now().Add(campaignTimeout)
	for {
		s, err := f.ct.Campaign(st.ID)
		if err != nil {
			return outcome{}, err
		}
		if s.State == "done" {
			break
		}
		if f.exited.Load() > 0 {
			f.errMu.Lock()
			defer f.errMu.Unlock()
			return outcome{}, fmt.Errorf("a worker loop exited: %v", f.workErr)
		}
		if time.Now().After(deadline) {
			return outcome{}, fmt.Errorf("campaign %s did not finish within %v", st.ID, campaignTimeout)
		}
		time.Sleep(time.Millisecond)
	}
	res, err := f.client.Result(st.ID)
	if err != nil {
		return outcome{}, fmt.Errorf("result: %w", err)
	}
	if res.Stats == nil {
		return outcome{}, fmt.Errorf("campaign %s result has no stats", st.ID)
	}
	out, err := summarize(res.Stats)
	if err != nil {
		return outcome{}, err
	}
	faults1, err := f.leaseFaults()
	if err != nil {
		return outcome{}, err
	}
	out.leaseFaults = faults1 - faults0
	return out, nil
}

// leaseFaults reads the controller's expired-lease and abandoned-shard
// counters.
func (f *fleetCampaign) leaseFaults() (int, error) {
	m, err := obs.ParseExposition(f.ct.Metrics().ExpositionText())
	if err != nil {
		return 0, fmt.Errorf("fleet metrics: %w", err)
	}
	return int(m[fleet.MetricLeasesExpired] + m[fleet.MetricShardsAbandoned]), nil
}

// close stops the worker loops, then the server, and waits for both.
func (f *fleetCampaign) close() {
	if f.cancel != nil {
		f.cancel()
	}
	f.wg.Wait()
	_ = f.srv.Close() // the listener and any open connections; nothing to flush
	<-f.served
	f.tr.CloseIdleConnections()
}

// analyzeSeconds times trace.Analyze on a fresh elaboration of a design.
func analyzeSeconds(design func() (*hdl.Netlist, error)) (float64, error) {
	n, err := design()
	if err != nil {
		return 0, err
	}
	start := time.Now()
	trace.Analyze(n)
	return time.Since(start).Seconds(), nil
}
