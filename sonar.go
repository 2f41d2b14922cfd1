// Package sonar is a from-scratch Go implementation of Sonar, the hardware
// fuzzing framework for uncovering contention side channels in processors
// (MICRO 2025). It bundles:
//
//   - a structural netlist IR and FIRRTL-style frontend (the analysis
//     substrate);
//   - MUX-based bottom-up tracing that identifies contention points,
//     request-validity determination, and risk filtering (paper §5);
//   - runtime instrumentation collecting contention-critical states —
//     requests, selects, outputs, and inter-request intervals — within a
//     secret-dependent monitoring window (§5.1, §6.1);
//   - reqsIntvl-guided fuzzing with seed retention, rank-weighted
//     selection, and adaptive directed mutation (§6.2);
//   - dual-differential side-channel detection: commit-cycle-difference
//     filtering plus contention-state comparison (§7);
//   - Meltdown-style exploitability analysis (§7.3, §8.5);
//   - cycle-accurate models of the two evaluation DUTs, a BOOM-like and a
//     NutShell-like out-of-order RISC-V core (Table 1), containing the
//     fourteen side channels of Table 3.
//
// Quick start:
//
//	s := sonar.NewBoom()
//	fmt.Print(s.Identify())                    // Figures 6 & 7
//	stats := s.Fuzz(sonar.SonarOptions(100))   // guided campaign
//	for _, f := range stats.Findings { fmt.Print(f.String(stats.Analysis)) }
//
// See the examples directory for runnable scenarios and DESIGN.md for the
// system inventory and experiment index.
package sonar

import (
	"io"

	"sonar/internal/attack"
	"sonar/internal/baseline"
	"sonar/internal/boom"
	"sonar/internal/core"
	"sonar/internal/fuzz"
	"sonar/internal/nutshell"
	"sonar/internal/obs"
	"sonar/internal/uarch"
)

// Re-exported types forming the public API surface.
type (
	// Sonar is the end-to-end pipeline over one DUT.
	Sonar = core.Sonar
	// IdentificationReport summarizes contention-point identification.
	IdentificationReport = core.IdentificationReport
	// Options configures a fuzzing campaign.
	Options = fuzz.Options
	// Stats is a campaign result.
	Stats = fuzz.Stats
	// Testcase is a template-shaped fuzzing input.
	Testcase = fuzz.Testcase
	// Checkpoint is a resumable snapshot of a campaign at a merge barrier
	// (docs/CAMPAIGNS.md).
	Checkpoint = fuzz.Checkpoint
	// CheckpointShape is the campaign-defining option subset a checkpoint
	// stores and Resume validates.
	CheckpointShape = fuzz.Shape
	// FaultHook intercepts worker iterations; the fuzz/faultinject package
	// implements it for deterministic fault-injection tests.
	FaultHook = fuzz.FaultHook
	// PoC is a Meltdown-style exploit template.
	PoC = attack.PoC
	// AttackResult is a PoC evaluation outcome.
	AttackResult = attack.Result
	// SoC is an elaborated system model.
	SoC = uarch.SoC
	// Observer collects campaign metrics and streams campaign events;
	// attach one via Options.Observer (see docs/OBSERVABILITY.md).
	Observer = obs.Observer
	// Event is one structured campaign event.
	Event = obs.Event
	// EventKind discriminates campaign events.
	EventKind = obs.Kind
	// Sink receives campaign events in emit order.
	Sink = obs.Sink
	// MemorySink buffers events in memory (tests, programmatic consumers).
	MemorySink = obs.MemorySink
)

// KeyBytes is the privileged key size used by exploitability analysis.
const KeyBytes = attack.KeyBytes

// Campaign event kinds (docs/OBSERVABILITY.md).
const (
	CampaignStart   = obs.CampaignStart
	IterationDone   = obs.IterationDone
	PointTriggered  = obs.PointTriggered
	FindingDetected = obs.FindingDetected
	BatchMerged     = obs.BatchMerged
	CampaignEnd     = obs.CampaignEnd
	WorkerFailed    = obs.WorkerFailed
	BatchRetried    = obs.BatchRetried
)

// LoadCheckpoint reads and validates a campaign checkpoint file; resume it
// with (*Sonar).Resume (docs/CAMPAIGNS.md).
func LoadCheckpoint(path string) (*Checkpoint, error) { return fuzz.LoadCheckpoint(path) }

// NewBoom builds the Sonar pipeline over the single-core BOOM-like DUT
// with its full structural netlist.
func NewBoom() *Sonar { return core.New(boom.New) }

// NewBoomDual builds the pipeline over the dual-core BOOM-like DUT
// (template Figure 4b).
func NewBoomDual() *Sonar { return core.New(boom.NewDual) }

// NewBoomLite builds the pipeline over the BOOM-like DUT without bulk
// structural arrays: same timing behaviour, much faster to elaborate.
func NewBoomLite() *Sonar { return core.New(boom.NewLite) }

// NewNutshell builds the pipeline over the NutShell-like DUT with its full
// structural netlist.
func NewNutshell() *Sonar { return core.New(nutshell.New) }

// NewNutshellLite builds the pipeline over the NutShell-like DUT without
// bulk structural arrays.
func NewNutshellLite() *Sonar { return core.New(nutshell.NewLite) }

// NewObserver builds a campaign Observer fanning events out to the sinks.
func NewObserver(sinks ...Sink) *Observer { return obs.New(sinks...) }

// NewJSONLSink streams events to w as JSON Lines.
func NewJSONLSink(w io.Writer) Sink { return obs.NewJSONLSink(w) }

// NewMemorySink buffers events in memory.
func NewMemorySink() *MemorySink { return obs.NewMemorySink() }

// NewProgressSink renders a live progress line to w every `every`
// iterations.
func NewProgressSink(w io.Writer, every int) Sink { return obs.NewProgressSink(w, every) }

// SonarOptions returns the full guided-fuzzing strategy set (§6.2).
func SonarOptions(iterations int) Options { return fuzz.SonarOptions(iterations) }

// RandomOptions returns the unguided random-testing baseline (Figure 8).
func RandomOptions(iterations int) Options { return fuzz.RandomOptions(iterations) }

// RunSpecDoctor runs the SpecDoctor-style coverage-guided baseline
// (Figure 11) on a pipeline's DUT.
func RunSpecDoctor(s *Sonar, iterations int, seed int64) *Stats {
	return baseline.RunSpecDoctor(s.DUT, iterations, seed)
}

// BoomPoCs returns the Meltdown-style PoCs for the BOOM side channels
// (S1-S7, S11, S12).
func BoomPoCs() []PoC {
	return attack.BoomPoCs(func() *uarch.SoC { return boom.NewLite() })
}

// NutshellPoCs returns the PoCs for the NutShell side channels (S13, S14).
func NutshellPoCs() []PoC {
	return attack.NutshellPoCs(func() *uarch.SoC { return nutshell.NewLite() })
}

// Exploit evaluates PoCs against a privileged key (§8.5).
func Exploit(pocs []PoC, key [KeyBytes]byte, attempts, trialsPerBit int, seed int64) []AttackResult {
	return core.Exploit(pocs, key, attempts, trialsPerBit, seed)
}

// ExploitCrossCore runs the dual-core TileLink attack (Table 3 footnote †):
// an attacker core recovers the victim core's key from its own load timing
// over the shared D-channel.
func ExploitCrossCore(key [KeyBytes]byte, attempts, trialsPerBit int, seed int64) AttackResult {
	return attack.RunCrossCore(func() *uarch.SoC { return boom.NewDualLite() },
		key, attempts, trialsPerBit, seed)
}
