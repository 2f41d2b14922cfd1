package detect

import (
	"fmt"
	"strings"
	"testing"

	"sonar/internal/hdl"
	"sonar/internal/trace"
)

// namedAnalysis is an analysis whose point i has output signal names[i]
// (a placeholder when empty), owned by the component before the name's
// first dot.
func namedAnalysis(names ...string) *trace.Analysis {
	n := hdl.NewNetlist("t")
	an := &trace.Analysis{Netlist: n}
	for i, name := range names {
		if name == "" {
			name = fmt.Sprintf("unused.p%d", i)
		}
		comp, _, _ := strings.Cut(name, ".")
		an.Points = append(an.Points, &trace.Point{ID: i, Out: n.Wire(name, 1), Component: comp})
	}
	return an
}

// boomNames names points 1, 2, 3 and 9 after BOOM contention points.
var boomNames = namedAnalysis("", "tilelink.d_channel_data", "lsu.dcache.mshr_req", "lsu.dcache.rlb.io_refill_data",
	"", "", "", "", "", "exe.div.req_in")

func finding(delta int64, diffs ...StateDiff) *Finding {
	return &Finding{
		Affected:   []Affected{{Idx: 1, CCDA: 0, CCDB: delta}},
		StateDiffs: diffs,
	}
}

func TestClassifyFamilies(t *testing.T) {
	fs := []*Finding{
		finding(40,
			StateDiff{PointID: 1, Reason: ReasonStream, Volatile: true},
			StateDiff{PointID: 2, Reason: ReasonStream, Volatile: true},
		),
		finding(9,
			StateDiff{PointID: 3, Reason: ReasonRevisit, Persistent: true},
			StateDiff{PointID: 1, Reason: ReasonStream, Volatile: true},
		),
	}
	cs := Classify(fs, boomNames)
	got := map[string]ChannelClass{}
	for _, c := range cs {
		got[c.Family] = c
	}
	tl, ok := got["TileLink D-Channel"]
	if !ok {
		t.Fatal("TileLink family missing")
	}
	if tl.Points != 1 {
		t.Errorf("TileLink points = %d, want 1 (deduplicated)", tl.Points)
	}
	if tl.MaxDelta != 40 {
		t.Errorf("TileLink max delta = %d, want 40", tl.MaxDelta)
	}
	if tl.Paper != "S1-S4" || tl.Kind != "volatile" {
		t.Errorf("TileLink metadata = %+v", tl)
	}
	if got["MSHR"].Points != 1 {
		t.Error("MSHR family missing")
	}
	rlb, ok := got["Read LineBuffer"]
	if !ok || rlb.Kind != "persistent" {
		t.Errorf("Read LineBuffer = %+v", rlb)
	}
}

func TestClassifyRulePrecedence(t *testing.T) {
	// "lsu.dcache.mshr_req" must classify as MSHR, not generic DCache.
	if i := classify("lsu.dcache.mshr_req"); rules[i].family != "MSHR" {
		t.Errorf("classified as %s", rules[i].family)
	}
	// Generic dcache points fall to the DCache family.
	if i := classify("lsu.dcache.bank3.rdata"); rules[i].family != "DCache" {
		t.Errorf("classified as %s", rules[i].family)
	}
	if i := classify("exe.wb.resp_data"); rules[i].family != "EXE writeback port" {
		t.Errorf("classified as %s", rules[i].family)
	}
	if classify("unrelated.signal") != -1 {
		t.Error("unknown names must not classify")
	}
}

func TestClassifyMixedKind(t *testing.T) {
	fs := []*Finding{
		finding(5, StateDiff{PointID: 9, Reason: ReasonIntvl, Volatile: true}),
		finding(7, StateDiff{PointID: 9, Reason: ReasonRevisit, Persistent: true}),
	}
	cs := Classify(fs, boomNames)
	if len(cs) != 1 || cs[0].Kind != "mixed" {
		t.Errorf("classes = %+v, want one mixed div family", cs)
	}
}

func TestRenderClasses(t *testing.T) {
	if s := RenderClasses(nil); !strings.Contains(s, "no channel families") {
		t.Error("empty render wrong")
	}
	an := namedAnalysis("", "tilelink.io_req_icache_rd_valid")
	cs := Classify([]*Finding{finding(3, StateDiff{PointID: 1, Reason: ReasonStream, Volatile: true})}, an)
	s := RenderClasses(cs)
	if !strings.Contains(s, "TileLink") || !strings.Contains(s, "S1-S4") {
		t.Errorf("render incomplete:\n%s", s)
	}
}
