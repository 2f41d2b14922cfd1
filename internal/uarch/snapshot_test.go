package uarch

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"sonar/internal/hdl"
	"sonar/internal/isa"
)

// runOutcome is everything a finished run leaves that a resumed run must
// reproduce.
type runOutcome struct {
	Cycle  int64
	Logs   [][]CommitRecord
	Perf   []PerfCounters
	Caches [][5]int
	Trace  []Transfer
	Grants []int
	// Events are the valid rising edges (cycle, signal) and window toggles
	// (cycle, -1-core, open) seen since the mark.
	Events [][3]int64
}

// TestSnapshotRestoreResumesRun takes a snapshot at a random cycle boundary
// of a trial run, lets the run finish, runs another trial on the same SoC,
// then restores the snapshot and finishes again: the second finish must
// repeat the first exactly — commit logs, counters, cache and bus state,
// and every request pulse and window toggle after the snapshot. The trials
// take branches, fault into a handler and miss in the caches, on 1- and
// 2-core BOOM and NutShell SoCs.
func TestSnapshotRestoreResumesRun(t *testing.T) {
	for _, cfg := range []Config{BoomConfig(), NutshellConfig()} {
		for _, cores := range []int{1, 2} {
			t.Run(fmt.Sprintf("%s/cores=%d", cfg.Name, cores), func(t *testing.T) {
				s := NewSoC(cfg, cores, traceArrays(), nil)
				s.Mem.SetPrivRange(tracePrivBase, tracePrivBase+pageBytes)
				var events [][3]int64
				for _, sig := range s.Net.Signals() {
					if !strings.HasSuffix(sig.Name(), "_valid") || sig.IsConst() {
						continue
					}
					sig.Watch(func(sg *hdl.Signal, old, new uint64, cycle int64) {
						if old == 0 && new != 0 {
							events = append(events, [3]int64{cycle, int64(sg.ID()), 1})
						}
					})
				}
				for _, c := range s.Cores {
					id := int64(c.ID)
					c.SetWindowObserver(windowFunc(func(open bool) {
						v := int64(0)
						if open {
							v = 1
						}
						events = append(events, [3]int64{s.Cycle(), -1 - id, v})
					}))
				}
				outcome := func() runOutcome {
					o := runOutcome{Cycle: s.Cycle(), Trace: append([]Transfer(nil), s.Bus.Trace...),
						Grants: append([]int(nil), s.Bus.Grants...), Events: events}
					for _, c := range s.Cores {
						o.Logs = append(o.Logs, append([]CommitRecord(nil), c.CommitLog...))
						o.Perf = append(o.Perf, *c.Perf())
						for _, ca := range []*Cache{c.ICache, c.DCache} {
							o.Caches = append(o.Caches, [5]int{ca.Hits, ca.Misses, ca.Writebacks, ca.SecAttaches, ca.FalseSharingBlocks})
						}
					}
					events = nil
					return o
				}
				rng := rand.New(rand.NewSource(int64(7*cores + len(cfg.Name))))
				gens := []func(*rand.Rand, int) []isa.Instr{randomControlFlow, randomFault, randomStraightLine}
				var snap Snapshot
				for trial := 0; trial < 12; trial++ {
					gen := gens[trial%len(gens)]
					progs := loadTraceTrial(s, rng, gen)
					for k := rng.Intn(120); k > 0 && !s.Halted(); k-- {
						s.Step()
					}
					s.Snapshot(&snap)
					events = nil
					s.Run()
					want := outcome()
					runTraceTrial(s, rng, gen)
					s.Restore(&snap)
					for i, c := range s.Cores {
						c.SetProgram(progs[i])
					}
					events = nil
					s.Run()
					if got := outcome(); !reflect.DeepEqual(got, want) {
						t.Fatalf("trial %d: resumed run differs from the original:\n got  %+v\n want %+v", trial, got, want)
					}
				}
			})
		}
	}
}
