package fleet

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"net/http"
	"reflect"
	"strings"
	"testing"

	"sonar/internal/detect"
	"sonar/internal/fuzz"
	"sonar/internal/monitor"
)

// reportWithDiff is a one-outcome report body whose finding carries one
// state diff encoded as diff (flags byte onwards).
func reportWithDiff(diff ...byte) []byte {
	b := []byte{leaseFormat}
	b = appendInt(b, 0)               // shard
	b = appendInt(b, 1)               // round
	b = binary.AppendUvarint(b, 1)    // outcomes
	b = binary.AppendUvarint(b, 0)    // triggered
	b = append(b, present)            // finding
	b = binary.AppendUvarint(b, 0)    // affected
	b = binary.AppendUvarint(b, 1)    // diffs
	b = append(b, diff...)            // the diff
	b = appendInt(b, 7)               // cycles
	return binary.AppendUvarint(b, 0) // intvls
}

// A state diff's intervals survive the report encoding whether observed or
// not, and an unobserved one costs no bytes: monitor.NoInterval travels as
// a clear flag bit, and decodes back to NoInterval, so what Render prints
// for IntvlA and IntvlB does not change.
func TestStateDiffIntervalsRoundTrip(t *testing.T) {
	report := func(a, b int64) *fuzz.LeaseResult {
		f := &detect.Finding{
			Affected:   []detect.Affected{{Idx: 3, Pos: 4, CCDA: 1, CCDB: 9}},
			StateDiffs: []detect.StateDiff{{PointID: 5, Reason: detect.ReasonIntvl, IntvlA: a, IntvlB: b, Volatile: a == 0}},
		}
		return &fuzz.LeaseResult{Shard: 1, Round: 2, Outcomes: []fuzz.OutcomeWire{{Finding: f, Cycles: 10}}}
	}
	intervals := []int64{monitor.NoInterval, 0, 1, 300, 1 << 40}
	size := make(map[[2]int64]int)
	for _, a := range intervals {
		for _, b := range intervals {
			res := report(a, b)
			body := AppendReport(nil, res)
			back, err := DecodeReport(body)
			if err != nil {
				t.Fatalf("IntvlA %d IntvlB %d: %v", a, b, err)
			}
			if !reflect.DeepEqual(back, res) {
				t.Fatalf("IntvlA %d IntvlB %d: decoded %+v, want %+v", a, b, back.Outcomes[0].Finding.StateDiffs, res.Outcomes[0].Finding.StateDiffs)
			}
			size[[2]int64{a, b}] = len(body)
		}
	}
	none, zero := size[[2]int64{monitor.NoInterval, monitor.NoInterval}], size[[2]int64{0, 0}]
	if none != zero-2 {
		t.Errorf("a diff with both intervals unobserved takes %d bytes, want the %d of both-zero minus their two bytes", none, zero)
	}
}

// Every way a lease-loop body can be malformed answers 400 with a JSON
// error body and changes nothing: the lease the bad reports name stays
// outstanding, the campaign's checkpoint keeps its bytes, and the real
// report is still accepted afterwards.
func TestMalformedLeaseBodiesRejected(t *testing.T) {
	client, ct := newTestServer(t, Config{})
	if _, err := client.Submit(&Spec{DUT: "lite", Options: testShape(8, 1, 8)}); err != nil {
		t.Fatalf("Submit: %v", err)
	}
	g, err := client.Acquire("w", nil)
	if err != nil || g == nil {
		t.Fatalf("Acquire: grant=%v err=%v", g, err)
	}
	res, _, err := fuzz.ExecuteLease(liteExecFactory()(), g.Shape, 1, &g.Lease, nil)
	if err != nil {
		t.Fatalf("ExecuteLease: %v", err)
	}
	valid := AppendReport(nil, res)
	before, err := client.CheckpointFile("c1")
	if err != nil {
		t.Fatalf("CheckpointFile: %v", err)
	}
	overflow := append(append([]byte{leaseFormat}, bytes.Repeat([]byte{0xff}, 9)...), 2) // 65 bits
	for _, c := range []struct {
		name, route string
		body        []byte
		phrase      string
	}{
		{"empty body", "report", nil, "truncated body"},
		{"unknown format byte", "report", append([]byte{2}, valid[1:]...), "unknown format byte 0x2"},
		{"truncated", "report", valid[:len(valid)-1], "truncated body"},
		{"trailing bytes", "report", append(append([]byte(nil), valid...), 0), "1 trailing bytes"},
		{"count beyond the body", "report", binary.AppendUvarint([]byte{leaseFormat, 0, 2}, 1<<40), "count 1099511627776 exceeds the 0 bytes left"},
		{"varint not minimal", "report", []byte{leaseFormat, 0x80, 0x00, 2, 0}, "not minimally encoded"},
		{"varint overflow", "report", overflow, "overflows 64 bits"},
		{"undefined flag bits", "report", []byte{leaseFormat, 0, 2, 1, 0, 2, 0, 0}, "undefined flag bits 0x2"},
		{"event counts flagged but zero", "report", reportWithDiff(diffCounts, 0, 1, 0, 0), "zero event counts"},
		{"observed interval is NoInterval", "report", reportWithDiff(append([]byte{diffIntvlA, 0, 1}, binary.AppendVarint(nil, monitor.NoInterval)...)...), "observed interval is monitor.NoInterval"},
		{"string beyond the body", "acquire", []byte{leaseFormat, 9, 'w'}, "string of 9 bytes, 1 left"},
		{"undefined holding flag", "acquire", []byte{leaseFormat, 1, 'w', 2}, "undefined flag bits 0x2"},
	} {
		t.Run(c.name, func(t *testing.T) {
			path := "/api/v1/leases/acquire"
			if c.route == "report" {
				path = "/api/v1/leases/" + g.LeaseID + "/result"
			}
			resp, err := http.Post(client.BaseURL+path, leaseContentType, bytes.NewReader(c.body))
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			var body struct{ Error string }
			if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
				t.Fatalf("error body is not JSON: %v", err)
			}
			if resp.StatusCode != http.StatusBadRequest || !strings.Contains(body.Error, c.phrase) {
				t.Errorf("got %d %q, want 400 with %q", resp.StatusCode, body.Error, c.phrase)
			}
		})
	}
	after, err := client.CheckpointFile("c1")
	if err != nil {
		t.Fatalf("CheckpointFile: %v", err)
	}
	if !bytes.Equal(before, after) {
		t.Error("a rejected lease body changed the campaign checkpoint")
	}
	if h := ct.Health(); h.OpenLeases != 1 {
		t.Errorf("%d open leases after the rejected bodies, want the 1 granted", h.OpenLeases)
	}
	if err := client.Report(g.LeaseID, res); err != nil {
		t.Fatalf("the real report after the rejected ones: %v", err)
	}
}

// realGrants returns the grant bodies of a 2×4 lite campaign served to one
// worker that keeps its holding: the first ships the empty corpus, later
// ones only the seeds merged since the worker's previous lease.
func realGrants(tb testing.TB) [][]byte {
	ct := NewController(Config{DUTs: testRegistry()})
	if _, err := ct.Submit(&Spec{DUT: "lite", Options: testShape(24, 2, 4)}); err != nil {
		tb.Fatalf("Submit: %v", err)
	}
	cache := newLeaseCache(testRegistry())
	var grants [][]byte
	for {
		g, err := ct.Acquire(context.Background(), "w", cache.holding())
		if err != nil {
			tb.Fatalf("Acquire: %v", err)
		}
		if g == nil {
			return grants
		}
		grants = append(grants, AppendGrant(nil, g))
		e, err := cache.executor(g)
		if err != nil {
			tb.Fatal(err)
		}
		res, err := cache.execute(e, g, 1)
		if err != nil {
			tb.Fatal(err)
		}
		if err := ct.Report(g.LeaseID, res); err != nil {
			tb.Fatal(err)
		}
	}
}

// FuzzLeaseGrant feeds arbitrary bytes to the worker's grant decoder. It
// must never panic, and a body it accepts must re-encode to the same
// bytes. The seeds are the grants of a real campaign.
func FuzzLeaseGrant(f *testing.F) {
	for _, g := range realGrants(f) {
		f.Add(g)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := DecodeGrant(data)
		if err != nil {
			return
		}
		if !bytes.Equal(AppendGrant(nil, g), data) {
			t.Fatal("a decoded grant re-encodes to different bytes")
		}
	})
}

// A grant survives its encoding field for field, holding, shape flags and
// FIRRTL source included, and so does an acquire request.
func TestGrantAndAcquireRoundTrip(t *testing.T) {
	grants := realGrants(t)
	if len(grants) < 4 {
		t.Fatalf("%d grants, want a few rounds' worth", len(grants))
	}
	shipped := 0
	for _, b := range grants {
		g, err := DecodeGrant(b)
		if err != nil {
			t.Fatalf("DecodeGrant: %v", err)
		}
		shipped += len(g.Lease.Corpus.Seeds)
	}
	if shipped == 0 {
		t.Fatal("no grant shipped a seed")
	}
	shape := testShape(9, 3, 2)
	shape.DualCore, shape.RandomDirection, shape.KeepFindings, shape.SecretA = true, true, 4, 1<<63
	want := &LeaseGrant{
		LeaseID: "c9-r2-s1-a3", Campaign: "c9", DUT: "Lsu", FIRRTL: fig3, Shape: shape, Lanes: 64, TTLMillis: 30000,
		Lease: fuzz.Lease{
			Shard: 1, Round: 2, N: 2, Cursor: 1 << 33,
			CorpusFrom:   fuzz.CorpusRef{Len: 1, Digest: "ab"},
			CorpusDigest: "cd",
			Corpus: fuzz.CorpusWire{
				Seeds: []fuzz.SeedWire{{TC: "tc", Intvls: []fuzz.PointIntvl{{Point: 2, Intvl: 0}}, Dir: -1, Target: 2}},
				Best:  []fuzz.PointIntvl{{Point: 2, Intvl: 0}, {Point: 7, Intvl: 12}},
			},
		},
	}
	got, err := DecodeGrant(AppendGrant(nil, want))
	if err != nil {
		t.Fatalf("DecodeGrant: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("grant round trip:\n got %+v\nwant %+v", got, want)
	}
	for _, have := range []*Holding{nil, {Campaign: "c9", CorpusRef: fuzz.CorpusRef{Len: 3, Digest: "ef"}}} {
		worker, back, err := decodeAcquire(appendAcquire(nil, "w1", have))
		if err != nil || worker != "w1" || !reflect.DeepEqual(back, have) {
			t.Errorf("acquire round trip of %+v: %q %+v %v", have, worker, back, err)
		}
	}
}

// A grant's interval lists are feedback vectors, whose points ascend
// strictly: a seed's or the corpus best's list with points out of order or
// repeated has no canonical encoding, and the merge walks over it would
// misread it.
func TestGrantIntervalListsAscend(t *testing.T) {
	for _, c := range []struct {
		name       string
		seed, best []fuzz.PointIntvl
	}{
		{"seed points out of order", []fuzz.PointIntvl{{Point: 7, Intvl: 1}, {Point: 2, Intvl: 0}}, nil},
		{"seed point repeated", []fuzz.PointIntvl{{Point: 2, Intvl: 1}, {Point: 2, Intvl: 0}}, nil},
		{"best points out of order", nil, []fuzz.PointIntvl{{Point: 7, Intvl: 12}, {Point: 2, Intvl: 0}}},
		{"best point repeated", nil, []fuzz.PointIntvl{{Point: 7, Intvl: 12}, {Point: 7, Intvl: 3}}},
	} {
		g := &LeaseGrant{LeaseID: "c1-r1-s0-a0", Campaign: "c1", DUT: "lite", Shape: testShape(8, 1, 8)}
		g.Lease.Corpus = fuzz.CorpusWire{Seeds: []fuzz.SeedWire{{TC: "tc", Intvls: c.seed}}, Best: c.best}
		if _, err := DecodeGrant(AppendGrant(nil, g)); err == nil || !strings.Contains(err.Error(), "does not ascend") {
			t.Errorf("%s: error %v, want one that they do not ascend", c.name, err)
		}
	}
}
