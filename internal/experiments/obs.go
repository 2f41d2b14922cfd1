package experiments

import (
	"time"

	"sonar/internal/fuzz"
	"sonar/internal/obs"
)

// campaignObserver is the Observer attached to every campaign the
// experiments run; see SetObserver.
var campaignObserver *obs.Observer

// SetObserver attaches o to every subsequent experiment campaign (Figures
// 8-11 and the parallel scaling run). The experiments run campaigns
// back-to-back, so the metrics aggregate across campaigns while the event
// stream concatenates them, delimited by CampaignStart/CampaignEnd pairs.
// Pass nil to detach. Not safe to call while an experiment is running.
func SetObserver(o *obs.Observer) { campaignObserver = o }

// campaignIterTimeout is the per-iteration deadline applied to every
// observed experiment campaign; see SetIterTimeout.
var campaignIterTimeout time.Duration

// SetIterTimeout applies a per-iteration deadline (fuzz.Options.IterTimeout)
// to every subsequent experiment campaign that elaborates a private DUT per
// executor; campaigns on one shared DUT (onDUT) never set it. Zero disables
// the deadline. Not safe to call while an experiment is running.
func SetIterTimeout(d time.Duration) { campaignIterTimeout = d }

// observed returns opt with the package Observer (and the configured
// iteration deadline) attached.
func observed(opt fuzz.Options) fuzz.Options {
	opt.Observer = campaignObserver
	opt.IterTimeout = campaignIterTimeout
	return opt
}

// onDUT runs a campaign on one already-built DUT, so it must run one shard.
// An executor replacing a stalled one would share d with the stalled
// attempt, so the campaign runs without an iteration deadline.
func onDUT(d *fuzz.DUT, opt fuzz.Options) *fuzz.Stats {
	opt.IterTimeout = 0
	return fuzz.RunParallelExec(func() fuzz.Executor { return d }, opt)
}
