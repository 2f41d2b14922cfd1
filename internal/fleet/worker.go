package fleet

import (
	"context"
	"fmt"
	"time"

	"sonar/internal/firrtl"
	"sonar/internal/fuzz"
	"sonar/internal/hdl"
	"sonar/internal/uarch"
)

// WorkerOptions parameterizes a worker loop.
type WorkerOptions struct {
	// ID is the worker's self-assigned identifier, recorded on its leases.
	ID string
	// Poll is how long to sleep between acquire attempts when the server
	// has no work; zero means 500ms. (While a round's other shards are out
	// the server holds the acquire until one frees up, so a worker does not
	// poll its way through a round.)
	Poll time.Duration
	// MaxLeases stops the worker after executing this many leases; zero
	// means run until the context is cancelled.
	MaxLeases int
	// Lanes overrides the server's suggested evaluator lane width
	// (operational; does not affect results). Zero uses the suggestion.
	Lanes int
	// DUTs is the worker's DUT registry; nil means Builtins. It must
	// resolve every name the server grants, i.e. server and workers must
	// agree on the registry.
	DUTs map[string]func() *uarch.SoC
}

// maxAcquireFailures is how many consecutive failed acquire calls a worker
// tolerates (server restarting, transient network) before giving up.
const maxAcquireFailures = 50

// RunWorker runs the lease-execution loop against a campaign server until
// the context is cancelled (returns nil), MaxLeases is reached, or an
// unrecoverable error occurs. It returns the number of leases executed.
//
// The loop is: acquire, naming the corpus prefix the worker holds (the
// server holds the request while the current round's shards are all out) →
// elaborate the granted DUT (once per design: see leaseCache) → execute the
// lease against the held prefix plus the seeds the lease ships → report.
// While executing, a background goroutine renews the lease at a third of
// its TTL so slow batches survive; if a report still races an expiry the
// server answers 409, the result is discarded, and the re-offered lease
// re-executes deterministically elsewhere — campaign results are
// unaffected.
func RunWorker(ctx context.Context, client *Client, opt WorkerOptions) (int, error) {
	poll := opt.Poll
	if poll <= 0 {
		poll = 500 * time.Millisecond
	}
	duts := opt.DUTs
	if duts == nil {
		duts = Builtins()
	}
	cache := newLeaseCache(duts)
	executed := 0
	failures := 0
	for {
		if err := ctx.Err(); err != nil {
			return executed, nil
		}
		g, err := client.Acquire(opt.ID, cache.holding())
		if err == nil {
			failures = 0
		} else if failures++; failures >= maxAcquireFailures {
			return executed, fmt.Errorf("fleet: worker %s: acquire failed %d times in a row: %w", opt.ID, failures, err)
		}
		if g == nil {
			if !sleep(ctx, poll) {
				return executed, nil
			}
			continue
		}

		e, err := cache.executor(g)
		if err != nil {
			return executed, fmt.Errorf("fleet: worker %s: lease %s: %w", opt.ID, g.LeaseID, err)
		}
		lanes := opt.Lanes
		if lanes == 0 {
			lanes = g.Lanes
		}
		stopRenew := renewLoop(client, g)
		res, err := cache.execute(e, g, lanes)
		stopRenew()
		if err != nil {
			// A lease the engine rejects (shape/corpus mismatch) cannot
			// succeed on retry either; let it expire and surface the error.
			return executed, fmt.Errorf("fleet: worker %s: lease %s: %w", opt.ID, g.LeaseID, err)
		}
		if err := client.Report(g.LeaseID, res); err != nil {
			// 409: the lease expired under us and was re-offered; the
			// result is simply discarded. Anything else is fatal.
			if ae, ok := err.(*APIError); !ok || ae.Status != 409 {
				return executed, fmt.Errorf("fleet: worker %s: report lease %s: %w", opt.ID, g.LeaseID, err)
			}
		}
		executed++
		if opt.MaxLeases > 0 && executed >= opt.MaxLeases {
			return executed, nil
		}
	}
}

// leaseCache is what a worker keeps between leases, bounded by its registry:
// one executor per registry design, one FIRRTL executor — for the FIRRTL
// campaign it last served (two campaigns may submit different sources under
// the same circuit name) — and the merged-corpus prefix of the campaign it
// last served.
type leaseCache struct {
	duts           map[string]func() *uarch.SoC
	named          map[string]fuzz.Executor // registry name → executor
	firrtlCampaign string
	firrtl         fuzz.Executor
	campaign       string
	held           *fuzz.HeldCorpus
}

func newLeaseCache(duts map[string]func() *uarch.SoC) *leaseCache {
	return &leaseCache{duts: duts, named: make(map[string]fuzz.Executor)}
}

// executor returns the executor for a grant, elaborating it on first use:
// a FIRRTL grant carries its design and elaborates into a lane-parallel
// netlist executor, replacing the previous FIRRTL campaign's; a named grant
// resolves against the worker's registry.
func (cache *leaseCache) executor(g *LeaseGrant) (fuzz.Executor, error) {
	if g.FIRRTL != "" {
		if cache.firrtl == nil || cache.firrtlCampaign != g.Campaign {
			src := g.FIRRTL
			lf, err := fuzz.LaneDUTFactory(func() (*hdl.Netlist, error) {
				return firrtl.ParseChecked(src)
			}, 0, 0)
			if err != nil {
				return nil, fmt.Errorf("firrtl: %w", err)
			}
			cache.firrtl, cache.firrtlCampaign = lf(), g.Campaign
		}
		return cache.firrtl, nil
	}
	e, ok := cache.named[g.DUT]
	if !ok {
		mk, known := cache.duts[g.DUT]
		if !known {
			return nil, fmt.Errorf("server granted unknown DUT %q (registry mismatch)", g.DUT)
		}
		e = fuzz.NewDUT(mk())
		cache.named[g.DUT] = e
	}
	return e, nil
}

// holding names the held corpus prefix for the next acquire (nil: none).
func (cache *leaseCache) holding() *Holding {
	if cache.held == nil {
		return nil
	}
	return &Holding{Campaign: cache.campaign, CorpusRef: cache.held.Ref()}
}

// execute runs a grant's lease on e against the prefix held for its
// campaign and keeps the prefix the lease leaves. The holding is the merged
// corpus of the lease's round, valid whether or not the report lands.
func (cache *leaseCache) execute(e fuzz.Executor, g *LeaseGrant, lanes int) (*fuzz.LeaseResult, error) {
	var held *fuzz.HeldCorpus
	if g.Campaign == cache.campaign {
		held = cache.held
	}
	res, next, err := fuzz.ExecuteLease(e, g.Shape, lanes, &g.Lease, held)
	if err != nil {
		return nil, err
	}
	cache.campaign, cache.held = g.Campaign, next
	return res, nil
}

// renewLoop renews a granted lease at a third of its TTL until the returned
// stop function is called. Renewal errors are ignored: a lost lease just
// means the eventual report is discarded.
func renewLoop(client *Client, g *LeaseGrant) func() {
	interval := time.Duration(g.TTLMillis) * time.Millisecond / 3
	if interval <= 0 {
		interval = time.Millisecond
	}
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				_ = client.Renew(g.LeaseID)
			}
		}
	}()
	return func() {
		close(stop)
		<-done
	}
}

// sleep waits d or until the context is cancelled; it reports whether the
// full duration elapsed.
func sleep(ctx context.Context, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-t.C:
		return true
	}
}
