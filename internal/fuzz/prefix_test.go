package fuzz

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"time"

	"sonar/internal/boom"
	"sonar/internal/hdl"
	"sonar/internal/isa"
	"sonar/internal/nutshell"
	"sonar/internal/uarch"
)

// sameExecution fails unless got is the execution want is: commit logs,
// cycle counts and monitor snapshots (active lists included).
func sameExecution(t *testing.T, label string, want, got *Execution) {
	t.Helper()
	if want.Cycles != got.Cycles {
		t.Fatalf("%s: %d cycles, want %d", label, got.Cycles, want.Cycles)
	}
	if !reflect.DeepEqual(want.Log, got.Log) {
		t.Fatalf("%s: victim commit logs differ (%d vs %d records)", label, len(got.Log), len(want.Log))
	}
	if !reflect.DeepEqual(want.AttackerLog, got.AttackerLog) {
		t.Fatalf("%s: attacker commit logs differ (%d vs %d records)", label, len(got.AttackerLog), len(want.AttackerLog))
	}
	activeEqual(t, label, want.Snap, got.Snap)
}

var prefixDUTs = []struct {
	name  string
	soc   func() *uarch.SoC
	dual  bool
	cases int
}{
	{"lite", boom.NewLite, false, 12},
	{"dual-lite", boom.NewDualLite, true, 12},
	{"paper", boom.New, false, 3},
	{"nutshell", nutshell.New, false, 4},
}

// A run that resumes from the shared-prefix snapshot must be the run a
// fresh DUT makes: on generated testcases, every execution of a reused DUT
// (A, then B resuming from A's prefix, then A again resuming across
// arenas) must equal an execution on a DUT built for it alone.
func TestSharedPrefixMatchesFresh(t *testing.T) {
	for _, dut := range prefixDUTs {
		t.Run(dut.name, func(t *testing.T) {
			factory := SharedAnalysisFactory(dut.soc)
			d := factory()
			rng := rand.New(rand.NewSource(41))
			runs := 0
			for i := 0; i < dut.cases; i++ {
				tc := Generate(rng, dut.dual)
				for _, secret := range []uint64{0, 1, 0x5a5a} {
					got := d.Execute(tc, secret)
					want := factory().Execute(tc, secret)
					sameExecution(t, fmt.Sprintf("testcase %d secret %#x", i, secret), want, got)
					runs++
				}
			}
			// Only the first run of each testcase may run its prefix.
			if d.resumes < runs-dut.cases {
				t.Fatalf("%d of %d runs resumed from a snapshot, want at least %d", d.resumes, runs, runs-dut.cases)
			}
		})
	}
}

// secretTouchingTestcase returns a testcase whose prologue reads or writes
// the secret through RegSecretBase before the secret range can be fetched:
// enough no-ops follow the access that fetch stalls on a full ROB until the
// access has committed.
func secretTouchingTestcase(rng *rand.Rand, access isa.Instr) *Testcase {
	tc := Generate(rng, false)
	prologue := []isa.Instr{access}
	for i := 0; i < 160; i++ {
		prologue = append(prologue, isa.NOP())
	}
	tc.Prologue = append(prologue, tc.Prologue...)
	return tc
}

// A prefix that reads or writes a secret byte depends on the secret, so no
// later run may resume from it: the DUT must fall back to full runs, and
// those must still equal fresh ones.
func TestSharedPrefixFallsBackOnSecretAccess(t *testing.T) {
	factory := SharedAnalysisFactory(boom.NewLite)
	d := factory()
	rng := rand.New(rand.NewSource(43))
	for _, access := range []isa.Instr{
		isa.Load(isa.LD, 5, RegSecretBase, 0),
		isa.Load(isa.LW, 5, RegSecretBase, 4),
		isa.Store(isa.SD, 5, RegSecretBase, 0),
		isa.Store(isa.SW, 5, RegSecretBase, 4),
	} {
		tc := secretTouchingTestcase(rng, access)
		before := d.resumes
		for _, secret := range []uint64{0, 1, 0x5a5a} {
			got := d.Execute(tc, secret)
			want := factory().Execute(tc, secret)
			sameExecution(t, fmt.Sprintf("%v secret %#x", access, secret), want, got)
		}
		if d.resumes != before {
			t.Fatalf("%v: %d runs resumed from a prefix that touched the secret", access, d.resumes-before)
		}
	}
	// The same DUT resumes again once the prefix leaves the secret alone.
	tc := Generate(rng, false)
	d.Execute(tc, 0)
	before := d.resumes
	d.Execute(tc, 1)
	if d.resumes != before+1 {
		t.Fatal("an untouched prefix did not resume after the fall-backs")
	}
}

// Changing a reuse input between the two runs of a pair — a core's window
// observer, the privileged range, the whole-run window, an extra netlist
// watcher — must send the second run down the full path, and it must equal
// a fresh DUT's run under the changed input.
func TestSharedPrefixInputChange(t *testing.T) {
	factory := SharedAnalysisFactory(boom.NewLite)
	for _, change := range []struct {
		name  string
		apply func(d *DUT)
	}{
		{"window observer", func(d *DUT) { d.SoC.Cores[0].SetWindowObserver(nil) }},
		{"privileged range", func(d *DUT) { d.SoC.Mem.SetPrivRange(SecretAddr, SecretAddr+8) }},
		{"window always open", func(d *DUT) { d.WindowAlwaysOpen = true }},
		{"extra watcher", func(d *DUT) {
			d.Analysis.Points[0].Requests[0].Valids[0].Watch(func(*hdl.Signal, uint64, uint64, int64) {})
		}},
	} {
		t.Run(change.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(47))
			for i := 0; i < 4; i++ {
				tc := Generate(rng, false)
				d := factory()
				d.Execute(tc, 0)
				change.apply(d)
				before := d.resumes
				got := d.Execute(tc, 1)
				fresh := factory()
				change.apply(fresh)
				sameExecution(t, fmt.Sprintf("testcase %d", i), fresh.Execute(tc, 1), got)
				if d.resumes != before {
					t.Fatalf("testcase %d: resumed across a changed input", i)
				}
			}
		})
	}
}

// BenchmarkSharedPrefix measures what the shared-prefix snapshot costs and
// saves per dual-secret pair on generated testcases: the B run in full and
// resumed, the Restore inside the resumed run, and the Snapshot the A run
// takes. The prefix a resumed run skips is full − (resumed − restore). Each
// metric is the median over the pairs, so a stray pause in one pair does
// not move it.
//
//	go test -run '^$' -bench SharedPrefix -benchtime 2000x ./internal/fuzz
func BenchmarkSharedPrefix(b *testing.B) {
	for _, dut := range prefixDUTs {
		b.Run(dut.name, func(b *testing.B) {
			d := SharedAnalysisFactory(dut.soc)()
			rng := rand.New(rand.NewSource(1))
			tcs := make([]*Testcase, 64)
			for i := range tcs {
				tcs[i] = Generate(rng, dut.dual)
			}
			var scratch uarch.Snapshot
			var full, resumed, prefix, restore, snapshot []float64
			us := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tc := tcs[i%len(tcs)]
				d.Execute(tc, 0)
				if !d.prefix.valid {
					b.Fatalf("testcase %d: no prefix snapshot", i%len(tcs))
				}
				t0 := time.Now()
				d.SoC.Restore(&d.prefix.snap)
				t1 := time.Now()
				d.SoC.Snapshot(&scratch)
				t2 := time.Now()
				d.Execute(tc, 1)
				t3 := time.Now()
				d.prefix.valid = false
				d.Execute(tc, 1)
				t4 := time.Now()
				restore = append(restore, us(t1.Sub(t0)))
				snapshot = append(snapshot, us(t2.Sub(t1)))
				resumed = append(resumed, us(t3.Sub(t2)))
				full = append(full, us(t4.Sub(t3)))
				prefix = append(prefix, us(t4.Sub(t3)-t3.Sub(t2)+t1.Sub(t0)))
			}
			median := func(v []float64) float64 {
				slices.Sort(v)
				return v[len(v)/2]
			}
			b.ReportMetric(median(full), "full-us/pair")
			b.ReportMetric(median(resumed), "resumed-us/pair")
			b.ReportMetric(median(prefix), "prefix-us/pair")
			b.ReportMetric(median(snapshot), "snapshot-us/pair")
			b.ReportMetric(median(restore), "restore-us/pair")
		})
	}
}
