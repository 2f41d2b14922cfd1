package fuzz

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"sonar/internal/hdl"
	"sonar/internal/hdl/gen"
	"sonar/internal/monitor"
	"sonar/internal/obs"
)

// netTestCfg is the generated design the netlist-DUT determinism tests run
// against: small enough to execute quickly, with arbiters (so contention
// points exist and trigger) and a prim share (so the lane evaluator's
// scalar-spill path is exercised, not just the pure mux/buffer fast path).
var netTestCfg = gen.Config{Seed: 5, Nodes: 48, Regs: 5, Arbiters: 3, PrimShare: 0.25}

// netTestCycles keeps per-execution simulation short for test speed.
const netTestCycles = 64

func netTestElab() (*hdl.Netlist, error) { return gen.New(netTestCfg) }

func netExecFactory(t testing.TB) func() Executor {
	t.Helper()
	f, err := LaneDUTFactory(netTestElab, netTestCycles, 8)
	if err != nil {
		t.Fatalf("LaneDUTFactory: %v", err)
	}
	return f
}

// netScalarFactory builds the scalar reference executors (scalarNetDUT) for
// the design netExecFactory's lane DUTs run.
func netScalarFactory(t testing.TB) func() Executor {
	t.Helper()
	f, err := scalarNetFactory(netTestElab, netTestCycles, 8)
	if err != nil {
		t.Fatalf("scalarNetFactory: %v", err)
	}
	return f
}

// snapEqual compares two snapshots by observable content. Point is compared
// by ID, not pointer: the scalar reference and a LaneDUT run distinct
// netlist instances, so the *trace.Point pointers differ while the campaign-
// visible record must not.
func snapEqual(t *testing.T, label string, a, b *monitor.Snapshot) {
	t.Helper()
	if len(a.Points) != len(b.Points) {
		t.Fatalf("%s: point counts differ: %d vs %d", label, len(a.Points), len(b.Points))
	}
	for i := range a.Points {
		pa, pb := &a.Points[i], &b.Points[i]
		if pa.Point.ID != pb.Point.ID {
			t.Fatalf("%s: point %d id %d vs %d", label, i, pa.Point.ID, pb.Point.ID)
		}
		if pa.MinIntvlDistinct != pb.MinIntvlDistinct || pa.MinIntvlSame != pb.MinIntvlSame ||
			pa.EventCount != pb.EventCount || pa.Digest != pb.Digest ||
			pa.VolatileContention != pb.VolatileContention ||
			pa.PersistentCandidate != pb.PersistentCandidate {
			t.Fatalf("%s: point %d state differs:\n%+v\nvs\n%+v", label, i, *pa, *pb)
		}
	}
}

// TestLaneDUTGroupMatchesScalar is the substrate-level half of the netlist
// determinism contract: for the same testcases and secrets, ExecuteGroup
// must produce per-pair snapshots identical to the scalar reference
// simulator's (scalarNetDUT) whether the group runs one pair per pass
// (chunk 1), two lanes per pass (chunk 2), partial lane passes (chunk 7),
// or one full-width bit-parallel pass (chunk 64). Execute, which runs its
// testcase alone in lane 0, must agree too.
func TestLaneDUTGroupMatchesScalar(t *testing.T) {
	factory := netExecFactory(t)
	ref := netScalarFactory(t)().(GroupExecutor)
	rng := rand.New(rand.NewSource(7))
	tcs := make([]*Testcase, ref.GroupWidth())
	for i := range tcs {
		tcs[i] = Generate(rng, true)
	}
	const secretA, secretB = 0, 1

	refPairs := ref.ExecuteGroup(tcs, secretA, secretB, 1, nil)
	if len(refPairs) != len(tcs) {
		t.Fatalf("scalar reference: %d pairs for %d testcases", len(refPairs), len(tcs))
	}
	for _, chunk := range []int{1, 2, 7, 64} {
		d := factory().(*LaneDUT)
		pairs := d.ExecuteGroup(tcs, secretA, secretB, chunk, nil)
		if len(pairs) != len(refPairs) {
			t.Fatalf("chunk=%d: %d pairs, want %d", chunk, len(pairs), len(refPairs))
		}
		for i := range pairs {
			snapEqual(t, fmt.Sprintf("chunk=%d pair=%d A", chunk, i), refPairs[i].A.Snap, pairs[i].A.Snap)
			snapEqual(t, fmt.Sprintf("chunk=%d pair=%d B", chunk, i), refPairs[i].B.Snap, pairs[i].B.Snap)
			if pairs[i].A.Cycles != refPairs[i].A.Cycles || pairs[i].B.Cycles != refPairs[i].B.Cycles {
				t.Fatalf("chunk=%d pair=%d cycle counts differ", chunk, i)
			}
		}
	}

	// The direct Executor path agrees with the scalar reference; an A/B
	// pair of Execute calls stays valid together.
	d := factory().(*LaneDUT)
	exA := d.Execute(tcs[0], secretA)
	exB := d.Execute(tcs[0], secretB)
	snapEqual(t, "Execute A", refPairs[0].A.Snap, exA.Snap)
	snapEqual(t, "Execute B", refPairs[0].B.Snap, exB.Snap)
}

// LaneDUTFactory elaborates once for its probe and once per executor: a
// LaneDUT holds one elaboration, compiled for the lane simulator only.
func TestLaneDUTElaboratesOnce(t *testing.T) {
	elabs := 0
	f, err := LaneDUTFactory(func() (*hdl.Netlist, error) {
		elabs++
		return netTestElab()
	}, netTestCycles, 8)
	if err != nil {
		t.Fatalf("LaneDUTFactory: %v", err)
	}
	const k = 3
	for i := 0; i < k; i++ {
		f()
	}
	if elabs != 1+k {
		t.Errorf("factory plus %d executors elaborated %d times, want %d", k, elabs, 1+k)
	}
}

// At the default Options.Lanes (0) a campaign runs each full group of
// GroupWidth pairs in one lane pass; Lanes 1 runs one pair per pass.
func TestDefaultLanesRunWholeGroup(t *testing.T) {
	for _, c := range []struct{ lanes, passes int }{{0, 1}, {64, 1}, {1, 32}, {7, 11}} {
		d := netExecFactory(t)().(*LaneDUT)
		opt := SonarOptions(32)
		opt.BatchSize = 32
		opt.Lanes = c.lanes
		if st := RunParallelExec(PrimaryThen(d, nil), opt); len(st.PerIteration) != 32 {
			t.Fatalf("lanes=%d: campaign ran %d iterations, want 32", c.lanes, len(st.PerIteration))
		}
		if d.passes != c.passes {
			t.Errorf("lanes=%d: a 32-pair group took %d lane passes, want %d", c.lanes, d.passes, c.passes)
		}
	}
}

// TestNetlistLaneMatrix extends the TestLaneMatrix contract to netlist-backed
// campaigns: for a fixed (Seed, Workers, BatchSize) over an hdl/gen design,
// the campaign's Stats, merged event stream, and checkpoint bytes must be
// identical at every Lanes setting, and identical to the same campaign on
// the scalar reference simulator (scalarNetDUT) — the lane width only
// decides how many testcase pairs share a simulator pass, never what any of
// them observe. CI runs this under -race as the netlist-DUT leg of the
// lane-determinism matrix.
func TestNetlistLaneMatrix(t *testing.T) {
	factory := netExecFactory(t)
	type result struct {
		stats  *Stats
		stream []byte
		ckpt   []byte
	}
	run := func(f func() Executor, lanes, workers int) result {
		opt := SonarOptions(24)
		opt.Workers = workers
		opt.BatchSize = 5
		opt.Lanes = lanes
		opt.CheckpointEvery = 10
		opt.Checkpoint = filepath.Join(t.TempDir(), "net.ckpt")
		opt, mem := observedOptions(opt)
		stats := RunParallelExec(f, opt)
		ckpt, err := os.ReadFile(opt.Checkpoint)
		if err != nil {
			t.Fatalf("read checkpoint: %v", err)
		}
		return result{stats: stats, stream: mem.Bytes(), ckpt: ckpt}
	}
	scalar := netScalarFactory(t)
	baseline := map[int]result{}
	for _, workers := range []int{1, 4} {
		baseline[workers] = run(scalar, 0, workers)
		if len(baseline[workers].stream) == 0 {
			t.Fatalf("workers=%d: no events emitted", workers)
		}
		if len(baseline[workers].stats.TriggeredPoints) == 0 {
			t.Fatalf("workers=%d: campaign triggered no contention points", workers)
		}
	}
	for _, lanes := range []int{0, 1, 7, 64} {
		for _, workers := range []int{1, 4} {
			t.Run(fmt.Sprintf("lanes=%d/workers=%d", lanes, workers), func(t *testing.T) {
				got := run(factory, lanes, workers)
				want := baseline[workers]
				statsEqual(t, want.stats, got.stats)
				statsWireEqual(t, want.stats, got.stats)
				if !bytes.Equal(got.stream, want.stream) {
					t.Error("event stream differs from the scalar reference")
				}
				if !bytes.Equal(got.ckpt, want.ckpt) {
					t.Error("checkpoint bytes differ from the scalar reference")
				}
			})
		}
	}
}

// TestNetlistCampaignPublishesCompileGauges pins the sim observability
// contract: a netlist-backed campaign with an Observer publishes the
// optimizer's spilled/eliminated node gauges (docs/SERVICE.md), which
// behavioral campaigns leave absent.
func TestNetlistCampaignPublishesCompileGauges(t *testing.T) {
	factory := netExecFactory(t)
	opt := SonarOptions(8)
	opt.Workers = 2
	opt.BatchSize = 4
	opt.Observer = obs.New()
	RunParallelExec(factory, opt)
	series, err := obs.ParseExposition(opt.Observer.Metrics.ExpositionText())
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := series[obs.MetricSimSpilled]; !ok {
		t.Errorf("%s not published by netlist campaign", obs.MetricSimSpilled)
	}
	if series[obs.MetricSimSpilled] == 0 {
		t.Errorf("%s = 0 on a PrimShare %.2f design", obs.MetricSimSpilled, netTestCfg.PrimShare)
	}
	if series[obs.MetricSimEliminated] == 0 {
		t.Errorf("%s = 0; optimizer removed nothing", obs.MetricSimEliminated)
	}

	bopt := SonarOptions(4)
	bopt.Observer = obs.New()
	RunParallelExec(liteExec, bopt)
	series, err = obs.ParseExposition(bopt.Observer.Metrics.ExpositionText())
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := series[obs.MetricSimSpilled]; ok {
		t.Errorf("behavioral campaign published %s", obs.MetricSimSpilled)
	}
}

// TestNetlistLeaseReExecution pins lease determinism on the lane path: a
// shard lease over a netlist DUT executed repeatedly on one reused executor
// returns byte-identical wire results, so a distributed campaign may
// re-execute a lost lane-group lease on any worker, and a worker may keep
// one executor for every lease.
func TestNetlistLeaseReExecution(t *testing.T) {
	factory := netExecFactory(t)
	opt := SonarOptions(20)
	opt.Workers = 2
	opt.BatchSize = 5
	lc := NewLeaseCoordinator(factory(), opt)
	shards := openShards(lc)
	if len(shards) == 0 {
		t.Fatal("no open shards")
	}
	l, err := lc.Lease(shards[0], CorpusRef{})
	if err != nil {
		t.Fatalf("Lease: %v", err)
	}
	var wires [][]byte
	e := factory()
	for range 4 {
		res, _, err := ExecuteLease(e, lc.Shape(), l, nil)
		if err != nil {
			t.Fatalf("ExecuteLease: %v", err)
		}
		b, err := json.Marshal(res)
		if err != nil {
			t.Fatalf("marshal result: %v", err)
		}
		wires = append(wires, b)
	}
	for i := 1; i < len(wires); i++ {
		if !bytes.Equal(wires[0], wires[i]) {
			t.Errorf("lease re-execution %d produced different wire bytes", i)
		}
	}
}
