package experiments

import (
	"fmt"
	"strings"

	"sonar/internal/attack"
	"sonar/internal/boom"
	"sonar/internal/isa"
	"sonar/internal/nutshell"
	"sonar/internal/uarch"
)

// Table3Row is one side channel of paper Table 3.
type Table3Row struct {
	ID          string // channel identifier (S1..S14)
	DUT         string // DUT the channel was found on
	Resource    string // contended hardware resource
	Description string // one-line channel description
	New         bool   // newly discovered by Sonar (not previously known)
	// TimeDiff is the measured secret-dependent timing difference in
	// cycles (PoC calibration signal, or direct scenario delta for the
	// previously known channels).
	TimeDiff int64
	// Accuracy is the Meltdown-style PoC key accuracy (bit-level); -1 when
	// exploitation was not evaluated (previously known channels).
	Accuracy float64
}

// scenarioDelta runs two program variants on fresh cores of one SoC and
// returns the difference in total runtime (last commit cycle).
func scenarioDelta(soc *uarch.SoC, a, b []isa.Instr) int64 {
	run := func(code []isa.Instr) int64 {
		prog := isa.NewProgram(0x1_0000, append(append([]isa.Instr{}, code...), isa.Instr{Op: isa.ECALL})...)
		log := soc.RunProgram(prog)
		if len(log) == 0 {
			return 0
		}
		return log[len(log)-1].Cycle
	}
	da := run(a)
	db := run(b)
	d := da - db
	if d < 0 {
		d = -d
	}
	return d
}

// scenarioS8 measures the shared execution-unit response port contention on
// BOOM: a multiply's writeback collides with the port-sharing ALU's.
func scenarioS8() int64 {
	soc := boom.NewLite()
	common := []isa.Instr{
		isa.I(isa.ADDI, 1, 0, 7),
	}
	withMul := append(append([]isa.Instr{}, common...),
		isa.R(isa.MUL, 5, 1, 1), // done T+3 via the shared port
		isa.I(isa.ADDI, 2, 1, 1),
		isa.R(isa.ADD, 6, 2, 2), // the three adds issue together at T+2;
		isa.R(isa.ADD, 7, 2, 2), // the third ALU shares the response port
		isa.R(isa.ADD, 8, 2, 2), // and collides with the mul at T+3
	)
	without := append(append([]isa.Instr{}, common...),
		isa.I(isa.ADDI, 5, 1, 1), // no multiplier traffic
		isa.I(isa.ADDI, 2, 1, 1),
		isa.R(isa.ADD, 6, 2, 2),
		isa.R(isa.ADD, 7, 2, 2),
		isa.R(isa.ADD, 8, 2, 2),
	)
	return scenarioDelta(soc, withMul, without)
}

// divOccupancyScenario measures non-pipelined divider/MDU occupancy: a
// younger operation whose operands resolve just before the older divide's
// enters the unit first and blocks it (S9 on BOOM with a younger divide,
// S13 on NutShell with a younger multiply). The younger chain length is
// scanned so the occupancy windows overlap regardless of frontend timing.
func divOccupancyScenario(soc *uarch.SoC, youngerOp isa.Op) int64 {
	build := func(withYounger bool, youngerChain int) []isa.Instr {
		code := []isa.Instr{
			isa.I(isa.ADDI, 1, 0, 1),
			isa.I(isa.ADDI, 3, 0, 5),
			isa.I(isa.ADDI, 8, 0, 58),
			isa.R(isa.SLL, 3, 3, 8), // huge operand (long divide occupancy)
		}
		code = isa.AppendDepChain(code, 1, 40)
		code = isa.AppendDepChain(code, 3, youngerChain)
		code = append(code, isa.R(isa.DIV, 2, 1, 1)) // older div, late operands
		if withYounger {
			code = append(code, isa.R(youngerOp, 4, 3, 3))
		} else {
			code = append(code, isa.R(isa.ADD, 4, 3, 3))
		}
		return code
	}
	var best int64
	for yc := 0; yc <= 40; yc += 4 {
		if d := scenarioDelta(soc, build(true, yc), build(false, yc)); d > best {
			best = d
		}
	}
	return best
}

// scenarioS10 measures the store-conditional dirty-marking channel: the SC
// dirties its line regardless of success, so a later eviction pays a
// writeback that a load-only variant avoids.
func scenarioS10() int64 {
	soc := boom.NewLite()
	const setStride = 64 * 64
	// Four lines of set 0 are touched by store-conditionals (variant A) or
	// plain loads (variant B); the set is then overfilled so all four are
	// evicted, and one is reloaded. Variant A pays four writebacks on the
	// D-channel plus write line-buffer traffic.
	build := func(sc bool) []isa.Instr {
		code := []isa.Instr{{Op: isa.LUI, Rd: 28, Imm: 0x40}}
		// Precompute every set-0 line address (x10..x22) so the access
		// phase can saturate the memory pipeline back to back.
		for k := 0; k < 13; k++ {
			rd := uint8(10 + k)
			code = append(code,
				isa.Instr{Op: isa.LUI, Rd: rd, Imm: int64(k * setStride >> 12)},
				isa.R(isa.ADD, rd, rd, 28),
			)
		}
		for k := 0; k < 4; k++ {
			code = append(code, isa.Load(isa.LRD, 2, uint8(10+k), 0)) // reserve
			if sc {
				code = append(code, isa.Store(isa.SCD, 3, uint8(10+k), 0)) // dirties
			} else {
				code = append(code, isa.Load(isa.LD, 3, uint8(10+k), 0)) // clean
			}
		}
		// Overfill the set back to back: the four lines above become LRU
		// and are evicted (dirty -> writeback in variant A).
		for k := 4; k < 13; k++ {
			code = append(code, isa.Load(isa.LD, 4, uint8(10+k), 0))
		}
		// Reload the first line: it queues behind the writeback traffic.
		code = append(code, isa.Load(isa.LD, 5, 10, 0))
		return code
	}
	return scenarioDelta(soc, build(true), build(false))
}

// scenarioS14 measures the NutShell single-ported ICache: the same program
// runs on a single-ported and a dual-ported configuration; the delta is the
// fetch/refill port contention.
func scenarioS14() int64 {
	code := []isa.Instr{isa.I(isa.ADDI, 1, 0, 1)}
	for i := 0; i < 64; i++ {
		code = append(code, isa.I(isa.ADDI, 1, 1, 1))
	}
	run := func(single bool) int64 {
		cfg := uarch.NutshellConfig()
		cfg.ICacheSinglePort = single
		soc := uarch.NewSoC(cfg, 1, nil, nil)
		prog := isa.NewProgram(0x1_0000, append(code, isa.Instr{Op: isa.ECALL})...)
		log := soc.RunProgram(prog)
		return log[len(log)-1].Cycle
	}
	d := run(true) - run(false)
	if d < 0 {
		d = -d
	}
	return d
}

// Table3 reproduces the side-channel list. trialsPerBit controls the PoC
// accuracy evaluation effort for the newly discovered channels.
func Table3(trialsPerBit int) []Table3Row {
	if trialsPerBit <= 0 {
		trialsPerBit = 7
	}
	key := [attack.KeyBytes]byte{
		0xA5, 0x3C, 0xF0, 0x0F, 0x55, 0xAA, 0x12, 0x34,
		0x9B, 0xDE, 0x01, 0xFE, 0x77, 0x88, 0xC3, 0x3C,
	}
	resources := map[string]string{
		"S1": "TileLink", "S2": "TileLink", "S3": "TileLink", "S4": "TileLink",
		"S5": "MSHR", "S6": "LineBuffer", "S7": "LineBuffer",
		"S8": "EXE Unit", "S9": "Div Unit", "S10": "L1 DCache",
		"S11": "L1 DCache", "S12": "L1 DCache",
		"S13": "MDU", "S14": "L1 ICache",
	}
	var rows []Table3Row
	// Newly discovered channels: PoC-backed measurements.
	for _, p := range attack.AllPoCs() {
		res := attack.Run(p, key, 1, trialsPerBit, 42)
		rows = append(rows, Table3Row{
			ID: p.ID, DUT: p.DUT, Resource: resources[p.ID],
			Description: p.Description, New: true,
			TimeDiff: int64(res.Signal), Accuracy: res.BitAccuracy,
		})
	}
	// Previously known channels: direct scenario measurements.
	known := []Table3Row{
		{ID: "S8", DUT: "boom", Resource: resources["S8"], New: false, Accuracy: -1,
			Description: "alu/imul/div contend for the shared execution-unit response port",
			TimeDiff:    scenarioS8()},
		{ID: "S9", DUT: "boom", Resource: resources["S9"], New: false, Accuracy: -1,
			Description: "younger division blocks the older one in the non-pipelined divider",
			TimeDiff:    divOccupancyScenario(boom.NewLite(), isa.DIV)},
		{ID: "S10", DUT: "boom", Resource: resources["S10"], New: false, Accuracy: -1,
			Description: "store-conditional dirties its cacheline regardless of success",
			TimeDiff:    scenarioS10()},
	}
	rows = append(rows, known...)
	// NutShell channels: the direct contention is real even though the
	// Meltdown-style PoC fails; override the time difference with the
	// scenario measurements.
	for i := range rows {
		switch rows[i].ID {
		case "S13":
			rows[i].TimeDiff = divOccupancyScenario(nutshell.NewLite(), isa.MUL)
		case "S14":
			rows[i].TimeDiff = scenarioS14()
		}
	}
	order := []string{"S1", "S2", "S3", "S4", "S5", "S6", "S7", "S8", "S9", "S10", "S11", "S12", "S13", "S14"}
	sorted := make([]Table3Row, 0, len(rows))
	for _, id := range order {
		for _, r := range rows {
			if r.ID == id {
				sorted = append(sorted, r)
			}
		}
	}
	return sorted
}

// RenderTable3 formats the side-channel table.
func RenderTable3(rows []Table3Row) string {
	var b strings.Builder
	b.WriteString("Table 3: contention side channels found by Sonar\n")
	fmt.Fprintf(&b, "  %-4s %-9s %-11s %-4s %10s %9s  %s\n",
		"ID", "DUT", "resource", "new", "Δcycles", "accuracy", "description")
	for _, r := range rows {
		acc := "-"
		if r.Accuracy >= 0 {
			acc = fmt.Sprintf("%5.1f%%", 100*r.Accuracy)
		}
		newMark := " "
		if r.New {
			newMark = "*"
		}
		fmt.Fprintf(&b, "  %-4s %-9s %-11s %-4s %10d %9s  %s\n",
			r.ID, r.DUT, r.Resource, newMark, r.TimeDiff, acc, r.Description)
	}
	return b.String()
}

// Exploitation evaluates every PoC (paper §8.5).
func Exploitation(attempts, trialsPerBit int) []attack.Result {
	if attempts <= 0 {
		attempts = 1
	}
	if trialsPerBit <= 0 {
		trialsPerBit = 9
	}
	key := [attack.KeyBytes]byte{
		0xA5, 0x3C, 0xF0, 0x0F, 0x55, 0xAA, 0x12, 0x34,
		0x9B, 0xDE, 0x01, 0xFE, 0x77, 0x88, 0xC3, 0x3C,
	}
	var out []attack.Result
	for _, p := range attack.AllPoCs() {
		out = append(out, attack.Run(p, key, attempts, trialsPerBit, 42))
	}
	// The dual-core TileLink attack (Table 3 footnote †).
	out = append(out, attack.RunCrossCore(func() *uarch.SoC {
		return uarch.NewSoC(uarch.BoomConfig(), 2, nil, nil)
	}, key, attempts, trialsPerBit, 42))
	return out
}

// RenderExploitation formats the PoC accuracy table.
func RenderExploitation(rs []attack.Result) string {
	var b strings.Builder
	b.WriteString("Exploitation (§8.5): Meltdown-style PoC accuracy for a 128-bit privileged key\n")
	fmt.Fprintf(&b, "  %-4s %10s %12s %12s\n", "ID", "signal", "bit acc", "key acc")
	for _, r := range rs {
		fmt.Fprintf(&b, "  %-4s %8.0f c %11.1f%% %11.1f%%\n",
			r.ID, r.Signal, 100*r.BitAccuracy, 100*r.KeyAccuracy)
	}
	return b.String()
}
