package fuzz

import (
	"bytes"
	"fmt"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"sonar/internal/boom"
	"sonar/internal/detect"
	"sonar/internal/obs"
)

// The counted RNG source must be a transparent wrapper: same draw sequence
// as the plain source it wraps (so attaching the counter never perturbs a
// campaign), and a fresh source fast-forwarded to a recorded cursor must
// continue the sequence exactly (the checkpoint/resume mechanism). This
// also pins the rand.Source64 assertion inside newCountedSource.
func TestCountedSourceMatchesPlainSource(t *testing.T) {
	for _, seed := range []int64{1, 7, 42} {
		plain := rand.New(rand.NewSource(seed))
		src := newCountedSource(seed, 0)
		counted := rand.New(src)
		for i := 0; i < 500; i++ {
			// Mix the draw kinds a campaign uses.
			switch i % 3 {
			case 0:
				if a, b := plain.Int63(), counted.Int63(); a != b {
					t.Fatalf("seed %d draw %d: Int63 %d vs %d", seed, i, a, b)
				}
			case 1:
				if a, b := plain.Float64(), counted.Float64(); a != b {
					t.Fatalf("seed %d draw %d: Float64 %v vs %v", seed, i, a, b)
				}
			default:
				if a, b := plain.Intn(97), counted.Intn(97); a != b {
					t.Fatalf("seed %d draw %d: Intn %d vs %d", seed, i, a, b)
				}
			}
		}
		replay := rand.New(newCountedSource(seed, src.cursor()))
		for i := 0; i < 200; i++ {
			if a, b := counted.Int63(), replay.Int63(); a != b {
				t.Fatalf("seed %d: replayed cursor diverged at draw %d: %d vs %d", seed, i, a, b)
			}
		}
	}
}

// pausedCampaign runs a parallel campaign that pauses after maxRounds merge
// rounds with a checkpoint at the returned path.
func pausedCampaign(t *testing.T, opt Options, maxRounds int) (string, *Checkpoint) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "campaign.ckpt")
	opt.Checkpoint = path
	opt.MaxRounds = maxRounds
	RunParallelExec(liteExec, opt)
	cp, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatalf("load checkpoint: %v", err)
	}
	return path, cp
}

// The round-trip property: a checkpoint serialized, reloaded, and resumed
// produces Stats identical to the uninterrupted campaign — including the
// exported finding seeds, which cross the checkpoint in Marshal form.
func TestCheckpointRoundTripMatchesUninterrupted(t *testing.T) {
	base := SonarOptions(40)
	base.Workers = 2
	base.BatchSize = 5
	full := RunParallelExec(liteExec, base)

	_, cp := pausedCampaign(t, base, 2)
	if cp.Complete {
		t.Fatal("pause checkpoint marked complete")
	}
	if cp.Done == 0 || cp.Done >= base.Iterations {
		t.Fatalf("pause checkpoint at %d/%d iterations", cp.Done, base.Iterations)
	}
	resumed, err := ResumeExec(liteExec, cp.CampaignOptions(), cp)
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	statsEqual(t, full, resumed)
	if len(full.FindingSeeds) != len(resumed.FindingSeeds) {
		t.Fatalf("finding seeds: %d vs %d", len(full.FindingSeeds), len(resumed.FindingSeeds))
	}
	for i := range full.FindingSeeds {
		if full.FindingSeeds[i].Marshal() != resumed.FindingSeeds[i].Marshal() {
			t.Errorf("finding seed %d differs after resume", i)
		}
	}
}

// Checkpoint files must be byte-deterministic: two identical paused
// campaigns write identical files (map-ordered state is serialized in
// sorted form).
func TestCheckpointBytesDeterministic(t *testing.T) {
	opt := SonarOptions(30)
	opt.Workers = 2
	opt.BatchSize = 4
	pathA, _ := pausedCampaign(t, opt, 2)
	pathB, _ := pausedCampaign(t, opt, 2)
	a, err := os.ReadFile(pathA)
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(pathB)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) == 0 || !bytes.Equal(a, b) {
		t.Error("identical paused campaigns wrote different checkpoint files")
	}
}

// The headline durability contract: a campaign killed mid-run (paused at a
// merge barrier) and resumed produces a final Stats and an event stream
// byte-identical to the uninterrupted run — the resumed stream continues
// the original sequence numbering and the concatenation of the two streams
// equals the uninterrupted stream.
func TestResumeEventStreamByteContinuity(t *testing.T) {
	base := SonarOptions(40)
	base.Workers = 2
	base.BatchSize = 5

	uopt, umem := observedOptions(base)
	full := RunParallelExec(liteExec, uopt)

	popt, pmem := observedOptions(base)
	_, cp := pausedCampaign(t, popt, 2)

	ropt, rmem := observedOptions(cp.CampaignOptions())
	resumed, err := ResumeExec(liteExec, ropt, cp)
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	statsEqual(t, full, resumed)

	concat := append(pmem.Bytes(), rmem.Bytes()...)
	if len(concat) == 0 {
		t.Fatal("no events emitted")
	}
	if !bytes.Equal(concat, umem.Bytes()) {
		t.Error("paused+resumed event stream differs from the uninterrupted stream")
	}
}

// Truncated, bit-flipped, or otherwise mangled checkpoint files must be
// rejected at load time, never half-restored.
func TestCheckpointCorruptionRejected(t *testing.T) {
	opt := SonarOptions(30)
	opt.Workers = 2
	opt.BatchSize = 4
	path, _ := pausedCampaign(t, opt, 2)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	cases := map[string][]byte{
		"truncated":     data[:len(data)-9],
		"empty":         nil,
		"header only":   data[:bytes.IndexByte(data, '\n')+1],
		"not a header":  []byte("hello world\n{}"),
		"bad version":   bytes.Replace(data, []byte(checkpointMagic+" v1 "), []byte(checkpointMagic+" v9 "), 1),
		"flipped byte":  flipByte(data, len(data)-20),
		"flipped early": flipByte(data, bytes.IndexByte(data, '\n')+10),
	}
	dir := t.TempDir()
	for name, mangled := range cases {
		p := filepath.Join(dir, strings.ReplaceAll(name, " ", "-"))
		if err := os.WriteFile(p, mangled, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := LoadCheckpoint(p); err == nil {
			t.Errorf("%s checkpoint loaded without error", name)
		}
	}
	// The untouched original must still load.
	if _, err := LoadCheckpoint(path); err != nil {
		t.Errorf("valid checkpoint rejected: %v", err)
	}
}

func flipByte(data []byte, i int) []byte {
	out := append([]byte(nil), data...)
	out[i] ^= 0x01
	return out
}

// Resume must refuse a checkpoint whose campaign shape differs from the
// offered Options: continuing under a different seed, strategy, or worker
// count would silently break the bit-identity contract.
func TestResumeShapeMismatchRejected(t *testing.T) {
	opt := SonarOptions(30)
	opt.Workers = 2
	opt.BatchSize = 4
	_, cp := pausedCampaign(t, opt, 1)

	mutations := map[string]func(*Options){
		"seed":       func(o *Options) { o.Seed++ },
		"workers":    func(o *Options) { o.Workers++ },
		"batch size": func(o *Options) { o.BatchSize++ },
		"iterations": func(o *Options) { o.Iterations++ },
		"strategy":   func(o *Options) { o.DirectedMutation = false },
		"secrets":    func(o *Options) { o.SecretB = 7 },
	}
	for name, mutate := range mutations {
		ropt := cp.CampaignOptions()
		mutate(&ropt)
		if _, err := ResumeExec(liteExec, ropt, cp); err == nil {
			t.Errorf("resume with mismatched %s succeeded", name)
		}
	}
	// Operational fields are not part of the shape.
	ropt := cp.CampaignOptions()
	ropt.CheckpointEvery = 7
	ropt.MaxRounds = 1
	if _, err := ResumeExec(liteExec, ropt, cp); err != nil {
		t.Errorf("resume with changed operational fields failed: %v", err)
	}
}

// A campaign run to completion leaves a Complete checkpoint; resuming it
// returns the final Stats without executing anything.
func TestResumeCompleteCheckpoint(t *testing.T) {
	path := filepath.Join(t.TempDir(), "campaign.ckpt")
	opt := SonarOptions(30)
	opt.Workers = 2
	opt.BatchSize = 4
	opt.Checkpoint = path
	full := RunParallelExec(liteExec, opt)

	cp, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if !cp.Complete {
		t.Fatal("finished campaign's checkpoint not marked complete")
	}
	if cp.Done != opt.Iterations {
		t.Fatalf("complete checkpoint at %d/%d iterations", cp.Done, opt.Iterations)
	}
	st, err := ResumeExec(liteExec, cp.CampaignOptions(), cp)
	if err != nil {
		t.Fatalf("resume complete checkpoint: %v", err)
	}
	statsEqual(t, full, st)
}

// A checkpoint cut at a mid-pipeline round boundary — while the fold
// goroutine may still be draining the round just merged — must capture the
// exact barrier state: the coordinator drains the pipeline before
// snapshotting, so the resumed campaign's Stats and event stream
// byte-continue the uninterrupted run. Workers=8 with a tiny batch keeps
// the double-buffered pipeline primed at every periodic checkpoint.
func TestCheckpointMidPipelineRoundBoundary(t *testing.T) {
	base := SonarOptions(96)
	base.Workers = 8
	base.BatchSize = 3

	uopt, umem := observedOptions(base)
	full := RunParallelExec(liteExec, uopt)

	popt, pmem := observedOptions(base)
	popt.CheckpointEvery = 24 // one checkpoint per round, right behind the fold
	_, cp := pausedCampaign(t, popt, 2)
	if cp.Complete {
		t.Fatal("pause checkpoint marked complete")
	}
	if cp.Done == 0 || cp.Done >= base.Iterations {
		t.Fatalf("pause checkpoint at %d/%d iterations", cp.Done, base.Iterations)
	}

	ropt, rmem := observedOptions(cp.CampaignOptions())
	resumed, err := ResumeExec(liteExec, ropt, cp)
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	statsEqual(t, full, resumed)
	concat := append(pmem.Bytes(), rmem.Bytes()...)
	if !bytes.Equal(concat, umem.Bytes()) {
		t.Error("mid-pipeline paused+resumed stream differs from the uninterrupted stream")
	}
}

// Periodic checkpoints: with CheckpointEvery below the campaign length, a
// mid-run pause must find a checkpoint no older than one merge round, and
// resuming from the periodic (not forced) snapshot still reproduces the
// uninterrupted run.
func TestPeriodicCheckpointResumable(t *testing.T) {
	base := SonarOptions(40)
	base.Workers = 2
	base.BatchSize = 4
	full := RunParallelExec(liteExec, base)

	path := filepath.Join(t.TempDir(), "campaign.ckpt")
	opt := base
	opt.Checkpoint = path
	opt.CheckpointEvery = 8
	opt.MaxRounds = 3 // pause right after a periodic write (8 per round)
	RunParallelExec(liteExec, opt)
	cp, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if cp.Done == 0 || cp.Done%8 != 0 {
		t.Fatalf("periodic checkpoint at %d iterations, want a multiple of 8", cp.Done)
	}
	resumed, err := ResumeExec(liteExec, cp.CampaignOptions(), cp)
	if err != nil {
		t.Fatal(err)
	}
	statsEqual(t, full, resumed)
}

// tamperedFinding pauses a campaign, applies tamper to the first
// checkpointed finding with state diffs, saves and reloads the checkpoint,
// and returns that finding's index and the resume error.
func tamperedFinding(t *testing.T, tamper func(d *detect.NamedDiff)) (int, error) {
	t.Helper()
	opt := SonarOptions(40)
	opt.Workers = 2
	opt.BatchSize = 5
	path, cp := pausedCampaign(t, opt, 2)
	k := -1
	for i := range cp.Stats.Findings {
		if len(cp.Stats.Findings[i].StateDiffs) > 0 {
			k = i
			break
		}
	}
	if k < 0 {
		t.Fatal("paused campaign has no finding with state diffs")
	}
	if _, err := ResumeExec(liteExec, cp.CampaignOptions(), cp); err != nil {
		t.Fatalf("untampered checkpoint: %v", err)
	}
	tamper(&cp.Stats.Findings[k].StateDiffs[0])
	if _, err := cp.Save(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatalf("the format does not change, so the file still loads: %v", err)
	}
	_, err = ResumeExec(liteExec, loaded.CampaignOptions(), loaded)
	return k, err
}

// A checkpointed finding naming a point differently from the resuming
// analysis is rejected, and the error names the finding.
func TestResumeRejectsForeignFindingName(t *testing.T) {
	k, err := tamperedFinding(t, func(d *detect.NamedDiff) { d.Name += "_renamed" })
	if want := fmt.Sprintf("checkpoint finding %d: ", k); err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("resume error %v, want one containing %q", err, want)
	}
}

// Likewise for a point's component.
func TestResumeRejectsForeignFindingComponent(t *testing.T) {
	k, err := tamperedFinding(t, func(d *detect.NamedDiff) { d.Component = "elsewhere" })
	if want := fmt.Sprintf("checkpoint finding %d: ", k); err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("resume error %v, want one containing %q", err, want)
	}
}

// A checkpointed reason text that does not parse back into reason bits and
// event counts is rejected, and the error names the finding.
func TestResumeRejectsUnparsableFindingReason(t *testing.T) {
	k, err := tamperedFinding(t, func(d *detect.NamedDiff) { d.Reason += ", event count 7" })
	if want := fmt.Sprintf("checkpoint finding %d: ", k); err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("resume error %v, want one containing %q", err, want)
	}
}

// dualLiteCheckpoint pauses a small dual-lite campaign after its first
// merge round and returns the checkpoint's JSON payload: the real seed of
// FuzzLoadCheckpoint (testdata/fuzz/FuzzLoadCheckpoint/valid).
func dualLiteCheckpoint(t *testing.T) []byte {
	t.Helper()
	opt := SonarOptions(4)
	opt.DualCore = true
	opt.Workers = 2
	opt.BatchSize = 1
	opt.Checkpoint = filepath.Join(t.TempDir(), "campaign.ckpt")
	opt.MaxRounds = 1
	RunParallelExec(func() Executor { return NewDUT(boom.NewDualLite()) }, opt)
	data, err := os.ReadFile(opt.Checkpoint)
	if err != nil {
		t.Fatalf("read checkpoint: %v", err)
	}
	return data[bytes.IndexByte(data, '\n')+1:]
}

// withHeader wraps a checkpoint payload in a valid header line.
func withHeader(payload []byte) []byte {
	header := fmt.Sprintf("%s v%d crc32=%08x\n", checkpointMagic, checkpointVersion, crc32.ChecksumIEEE(payload))
	return append([]byte(header), payload...)
}

// The committed FuzzLoadCheckpoint seeds stay what they say: valid is the
// payload of a fresh dual-lite checkpoint and resumes; the broken ones are
// rejected.
func TestLoadCheckpointSeeds(t *testing.T) {
	seeds := map[string][]byte{}
	dir := filepath.Join("testdata", "fuzz", "FuzzLoadCheckpoint")
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		raw, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		var payload []byte
		if _, err := fmt.Sscanf(strings.TrimPrefix(string(raw), "go test fuzz v1\n"), "[]byte(%q)", &payload); err != nil {
			t.Fatalf("seed %s: %v", e.Name(), err)
		}
		seeds[e.Name()] = payload
	}
	if !bytes.Equal(seeds["valid"], dualLiteCheckpoint(t)) {
		t.Error("seed valid is not the payload of a fresh dual-lite checkpoint")
	}
	// Interval vectors that do not ascend fail at load already, before a
	// resume brings the analysis that bounds their points.
	for _, name := range []string{"unsorted-seed-intvls", "repeated-best-point", "unsorted-stats-best"} {
		if _, err := decodeCheckpoint(withHeader(seeds[name])); err == nil || !strings.Contains(err.Error(), "does not ascend") {
			t.Errorf("seed %s: load error %v, want one that its points do not ascend", name, err)
		}
	}
	d := NewDUT(boom.NewDualLite())
	for name, payload := range seeds {
		cp, err := decodeCheckpoint(withHeader(payload))
		if err == nil {
			_, err = ResumeLeaseCoordinator(d, cp.CampaignOptions(), cp)
		}
		if (name == "valid") != (err == nil) {
			t.Errorf("seed %s: error %v", name, err)
		}
	}
}

// FuzzLoadCheckpoint feeds arbitrary checkpoint payloads, each behind a
// valid header so it reaches JSON decoding and validate, through the path
// a resumed campaign takes: decode, then ResumeLeaseCoordinator on a
// dual-lite DUT. Neither may panic, and an accepted checkpoint yields
// either an error or a coordinator. The seed corpus (testdata/fuzz) holds
// one real checkpoint payload and broken ones, one per kind of rejection.
func FuzzLoadCheckpoint(f *testing.F) {
	d := NewDUT(boom.NewDualLite())
	f.Fuzz(func(t *testing.T, payload []byte) {
		cp, err := decodeCheckpoint(withHeader(payload))
		if err != nil {
			return
		}
		opt := cp.CampaignOptions()
		opt.Observer = obs.New()
		if lc, err := ResumeLeaseCoordinator(d, opt, cp); err == nil && lc == nil {
			t.Fatal("ResumeLeaseCoordinator returned neither a coordinator nor an error")
		}
	})
}
