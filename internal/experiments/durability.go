package experiments

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"sonar/internal/boom"
	"sonar/internal/fuzz"
	"sonar/internal/fuzz/faultinject"
)

// DurabilityResult demonstrates the durable-campaign contracts of
// docs/CAMPAIGNS.md on a live DUT: a campaign paused at a checkpoint and
// resumed matches the uninterrupted run, and a campaign with an injected
// worker panic recovers to the fault-free result.
type DurabilityResult struct {
	// Iterations and Workers describe the campaigns compared.
	Iterations int
	Workers    int // worker count of the compared campaigns
	// PausedAt is the campaign position (iterations) of the pause
	// checkpoint.
	PausedAt int
	// CheckpointBytes is the size of the pause checkpoint file.
	CheckpointBytes int
	// ResumeIdentical reports whether pause+resume reproduced the
	// uninterrupted campaign's per-iteration trajectory exactly.
	ResumeIdentical bool
	// FaultsInjected is the number of worker faults fired by the injection
	// schedule.
	FaultsInjected int
	// FaultRecovered reports whether the faulted campaign's trajectory
	// matched the fault-free run after batch retry.
	FaultRecovered bool
}

// Durability runs the checkpoint/resume and fault-recovery demonstrations
// on the BOOM-like DUT. The campaign budget is capped: the contracts are
// scale-independent and the experiment runs four campaigns.
func Durability(iterations, workers int) DurabilityResult {
	if iterations > 200 {
		iterations = 200
	}
	if workers < 2 {
		workers = 2
	}
	mkDUT := fuzz.SharedAnalysisFactory(boom.NewLite)
	mkExec := func() fuzz.Executor { return mkDUT() }

	opt := fuzz.SonarOptions(iterations)
	opt.Workers = workers
	opt.BatchSize = 16

	baseline := fuzz.RunParallelExec(mkExec, observed(opt))

	r := DurabilityResult{Iterations: iterations, Workers: opt.Workers}

	// Pause after two merge rounds, then resume from the checkpoint and
	// compare against the uninterrupted run.
	dir, err := os.MkdirTemp("", "sonar-durability-*")
	if err == nil {
		defer os.RemoveAll(dir)
		path := filepath.Join(dir, "campaign.ckpt")
		popt := opt
		popt.Checkpoint = path
		popt.MaxRounds = 2
		fuzz.RunParallelExec(mkExec, popt)
		if cp, err := fuzz.LoadCheckpoint(path); err == nil {
			r.PausedAt = cp.Done
			if fi, err := os.Stat(path); err == nil {
				r.CheckpointBytes = int(fi.Size())
			}
			ropt := cp.CampaignOptions()
			ropt.Checkpoint = path
			if resumed, err := fuzz.ResumeExec(mkExec, ropt, cp); err == nil {
				r.ResumeIdentical = sameTrajectory(baseline, resumed)
			}
		}
	}

	// Inject a worker panic in the first round and verify the retried
	// campaign matches the fault-free baseline.
	sched := faultinject.NewSchedule(
		faultinject.Fault{Worker: 0, Round: 1, Iter: 0, Mode: faultinject.ModePanic},
	)
	fopt := opt
	fopt.FaultHook = sched
	faulted := fuzz.RunParallelExec(mkExec, fopt)
	r.FaultsInjected = sched.Fired()
	r.FaultRecovered = sameTrajectory(baseline, faulted)
	return r
}

// sameTrajectory compares two campaigns' per-iteration progress series.
func sameTrajectory(a, b *fuzz.Stats) bool {
	if len(a.PerIteration) != len(b.PerIteration) {
		return false
	}
	for i := range a.PerIteration {
		if a.PerIteration[i] != b.PerIteration[i] {
			return false
		}
	}
	return true
}

// RenderDurability formats the durability demonstration.
func RenderDurability(r DurabilityResult) string {
	var b strings.Builder
	b.WriteString("Durable campaigns: checkpoint/resume and fault recovery\n")
	fmt.Fprintf(&b, "  campaign: %d iterations, %d workers\n", r.Iterations, r.Workers)
	fmt.Fprintf(&b, "  paused at iteration %d (checkpoint %d bytes); resume reproduces uninterrupted run: %v\n",
		r.PausedAt, r.CheckpointBytes, r.ResumeIdentical)
	fmt.Fprintf(&b, "  injected %d worker panic(s); recovered campaign matches fault-free run: %v\n",
		r.FaultsInjected, r.FaultRecovered)
	return b.String()
}
