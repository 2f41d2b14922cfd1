package fuzz

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"sonar/internal/uarch"
)

// The goldens under testdata/serial were captured from the serial engine that
// once ran campaigns beside the sharded one — select, mutate, double-execute,
// detect, fold, one iteration at a time — and hold each campaign's
// Stats.Wire() JSON (<name>.stats.json) and its event stream with
// batch_merged projected away (<name>.events.jsonl). They are the
// single-shard determinism oracle and are frozen: a change that moves them
// changes what a Sonar campaign computes.
type goldenCampaign struct {
	name string
	opt  Options
	exec func() Executor
}

func goldenCampaigns() []goldenCampaign {
	dual := SonarOptions(12)
	dual.DualCore = true
	return []goldenCampaign{
		{"sonar30", SonarOptions(30), liteExec},
		{"random30", RandomOptions(30), liteExec},
		{"dual12", dual, func() Executor { return NewDUT(uarch.NewSoC(uarch.BoomConfig(), 2, nil, nil)) }},
	}
}

// TestParallelWorkers1MatchesSerial requires a Workers=1 campaign to
// reproduce the serial golden's Stats bytes at every batch size and lane
// width: neither may move a result.
func TestParallelWorkers1MatchesSerial(t *testing.T) {
	for _, c := range goldenCampaigns() {
		want := readGolden(t, c.name+".stats.json")
		for _, batch := range []int{0, 1, 7} {
			for _, lanes := range []int{0, 8} {
				t.Run(fmt.Sprintf("%s/batch=%d/lanes=%d", c.name, batch, lanes), func(t *testing.T) {
					opt := c.opt
					opt.Workers = 1
					opt.BatchSize = batch
					opt.Lanes = lanes
					b, err := json.Marshal(RunParallelExec(c.exec, opt).Wire())
					if err != nil {
						t.Fatalf("marshal stats: %v", err)
					}
					if got := append(b, '\n'); !bytes.Equal(got, want) {
						t.Errorf("stats differ from the serial golden:\n%s", firstDiff(got, want))
					}
				})
			}
		}
	}
}

// TestSerialEventStreamMatchesWorkers1 requires a Workers=1 campaign at the
// default batch size to reproduce the serial golden's event stream once
// batch_merged, which the serial engine never emitted, is projected away.
func TestSerialEventStreamMatchesWorkers1(t *testing.T) {
	for _, c := range goldenCampaigns() {
		want := readGolden(t, c.name+".events.jsonl")
		t.Run(c.name, func(t *testing.T) {
			opt := c.opt
			opt.Workers = 1
			opt, mem := observedOptions(opt)
			RunParallelExec(c.exec, opt)
			if got := stripBatchMerged(mem.Events()); !bytes.Equal(got, want) {
				t.Errorf("event stream differs from the serial golden:\n%s", firstDiff(got, want))
			}
		})
	}
}

func readGolden(t *testing.T, name string) []byte {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("testdata", "serial", name))
	if err != nil {
		t.Fatalf("read golden: %v", err)
	}
	return b
}

// firstDiff renders both documents around their first differing byte.
func firstDiff(got, want []byte) string {
	at := 0
	for at < len(got) && at < len(want) && got[at] == want[at] {
		at++
	}
	window := func(b []byte) []byte { return b[max(at-60, 0):min(at+60, len(b))] }
	return fmt.Sprintf("byte %d:\n got: …%s…\nwant: …%s…", at, window(got), window(want))
}
