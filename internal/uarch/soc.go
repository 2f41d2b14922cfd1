package uarch

import (
	"fmt"

	"sonar/internal/hdl"
	"sonar/internal/isa"
)

// ArrayRole says which pipeline activity drives a structural array.
type ArrayRole uint8

// Roles for ArraySpec.
const (
	// RoleNone elaborates the array but leaves it undriven: a monitorable
	// contention point that never triggers, part of the gap between
	// identified and triggered points (paper Figure 8).
	RoleNone ArrayRole = iota
	RoleROB
	RoleFetchBuf
	RoleIssueQ
	RoleRegFile
	RoleBTB
)

// ArraySpec describes one structural array to elaborate per core.
type ArraySpec struct {
	// Component is the module path segment (e.g. "rob", "frontend").
	Component string
	// Name is the array name within the component.
	Name string
	// Entries, Fanin, Width size the array.
	Entries, Fanin, Width int
	// Role connects the array to pipeline activity.
	Role ArrayRole
}

// FilterSpec describes per-component points that the §5.2 risk filter will
// drop: constant-request points and no-valid points.
type FilterSpec struct {
	Component string // component the counts belong to
	Const     int    // points dropped for constant request signals
	NoValid   int    // points dropped for having no valid request
	Fanin     int    // points dropped by the fan-in heuristic
}

// SoC is a one- or two-core system sharing memory, the L2, and the TileLink
// D-channel. It owns the netlist and the per-cycle run loop.
type SoC struct {
	Net    *hdl.Netlist // the elaborated netlist
	Pulser *Pulser      // contention pulser driving shared resources
	Mem    *Memory      // shared backing memory and L2 model
	Bus    *DChannel    // shared TileLink D-channel
	Cores  []*Core      // the cores, indexed by Core.ID

	cycle int64
}

// D-channel source indices per core: icache read, dcache read, dcache
// writeback.
func busSources(numCores int) []string {
	var s []string
	for i := 0; i < numCores; i++ {
		p := corePrefix(i)
		s = append(s, p+"icache_rd", p+"dcache_rd", p+"dcache_wb")
	}
	return s
}

func corePrefix(i int) string {
	if i == 0 {
		return ""
	}
	return fmt.Sprintf("c%d_", i)
}

// NewSoC elaborates a system with numCores cores of the given
// configuration plus the requested structural arrays and filterable banks.
func NewSoC(cfg Config, numCores int, arrays []ArraySpec, filters []FilterSpec) *SoC {
	net := hdl.NewNetlist(cfg.Name)
	s := &SoC{
		Net:    net,
		Pulser: NewPulser(net),
		Mem:    NewMemory(),
	}
	s.Bus = NewDChannel(net.Module("tilelink"), s.Pulser, cfg.ReadBeats, busSources(numCores))
	s.Bus.SetPartitioned(cfg.PartitionedDChannel)

	for i := 0; i < numCores; i++ {
		p := corePrefix(i)
		icache := NewCache(net.Module(p+"frontend").Child("icache"), s.Pulser, CacheParams{
			Name: p + "icache", Sets: cfg.ICacheSets, Ways: cfg.ICacheWays,
			HitLatency: cfg.CacheHitLatency, L2Latency: cfg.L2Latency,
			Bus: s.Bus, ReadSrc: 3 * i, WBSrc: 3 * i, // icache lines are clean; reads only
			NumMSHRs: 0, SinglePort: cfg.ICacheSinglePort, Ports: 2, Banks: 32,
		})
		dcache := NewCache(net.Module(p+"lsu").Child("dcache"), s.Pulser, CacheParams{
			Name: p + "dcache", Sets: cfg.DCacheSets, Ways: cfg.DCacheWays,
			HitLatency: cfg.CacheHitLatency, L2Latency: cfg.L2Latency,
			Bus: s.Bus, ReadSrc: 3*i + 1, WBSrc: 3*i + 2,
			NumMSHRs: cfg.NumMSHRs, LineBuffers: cfg.LineBuffers, Ports: 2, Banks: 64,
		})
		exec := NewExecUnits(net.Module(p+"exe"), s.Pulser, &cfg)

		var bulk Bulk
		for _, a := range arrays {
			arr := NewBulkArray(net.Module(p+a.Component).Child(a.Name), s.Pulser, a.Entries, a.Fanin, a.Width)
			switch a.Role {
			case RoleROB:
				bulk.ROB = arr
			case RoleFetchBuf:
				bulk.FetchBuf = arr
			case RoleIssueQ:
				bulk.IssueQ = arr
			case RoleRegFile:
				bulk.RegFile = arr
			case RoleBTB:
				bulk.BTB = arr
			}
		}
		for _, f := range filters {
			mod := net.Module(p + f.Component).Child("cfg")
			if f.Const > 0 {
				NewConstBank(mod, f.Const, f.Fanin)
			}
			if f.NoValid > 0 {
				NewNoValidBank(net.Module(p+f.Component).Child("route"), f.NoValid, f.Fanin)
			}
		}

		core := NewCore(cfg, CoreParams{
			ID: i, Net: net, Pulser: s.Pulser, Mem: s.Mem, Bus: s.Bus,
			ICache: icache, DCache: dcache, Exec: exec, Bulk: bulk,
		})
		s.Cores = append(s.Cores, core)
	}
	return s
}

// Cycle returns the SoC clock.
func (s *SoC) Cycle() int64 { return s.cycle }

// Step advances the whole system one cycle: scheduled request pulses fire,
// every core steps, and the netlist clock advances.
func (s *SoC) Step() {
	s.Pulser.Drain(s.cycle)
	for _, c := range s.Cores {
		c.Step()
	}
	s.Net.Step()
	s.cycle++
}

// Halted reports whether every core has halted.
func (s *SoC) Halted() bool {
	for _, c := range s.Cores {
		if !c.Halted() {
			return false
		}
	}
	return true
}

// Run steps until every core halts or the configuration cycle cap is hit.
// It returns the cycle count consumed.
func (s *SoC) Run() int64 {
	start := s.cycle
	max := s.Cores[0].Cfg.MaxCycles
	for !s.Halted() && s.cycle-start < max {
		s.Step()
	}
	return s.cycle - start
}

// RunToSecret steps a freshly reset SoC like Run, but stops at the first
// cycle boundary from which core 0 may dispatch an instruction of its
// secret range (Core.SetSecretRange) in the next cycle: the last boundary
// before the monitoring window can open. It reports whether it stopped
// there rather than at the end of the run; Run continues either way.
func (s *SoC) RunToSecret() bool {
	victim, max := s.Cores[0], s.Cores[0].Cfg.MaxCycles
	for !s.Halted() && s.cycle < max {
		if victim.mayDispatchSecret() {
			return true
		}
		s.Step()
	}
	return false
}

// RunProgram resets the system, loads the program on core 0, and runs to
// completion. Other cores idle (halted with empty programs). The returned
// log is private to this call: it stays valid across later RunProgram calls.
func (s *SoC) RunProgram(p *isa.Program) []CommitRecord {
	s.Reset()
	// Core.Reset retains the commit-log buffer; detach it so the returned
	// slice is not clobbered by the next run.
	s.Cores[0].CommitLog = nil
	s.Cores[0].LoadProgram(p)
	for _, c := range s.Cores[1:] {
		c.halted = true
	}
	s.Run()
	return s.Cores[0].CommitLog
}

// Reset returns every component to its post-elaboration state. Memory
// contents are dropped; the privileged range is kept. The netlist clock
// rewinds so runs are cycle-for-cycle reproducible.
func (s *SoC) Reset() {
	s.cycle = 0
	s.Pulser.Reset()
	s.Mem.Reset()
	s.Bus.Reset()
	for _, c := range s.Cores {
		c.Reset()
		c.ICache.Reset()
		c.DCache.Reset()
		c.Exec.Reset()
	}
	s.Net.SetCycle(0)
}
