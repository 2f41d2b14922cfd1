package fleet

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"sonar/internal/detect"
	"sonar/internal/fuzz"
	"sonar/internal/monitor"
)

// renderedJSON is what a client marshals from a result body: decode, render
// through detect.Render, json.Marshal.
func renderedJSON(tb testing.TB, body []byte) []byte {
	tb.Helper()
	fr, err := decodeResult(body)
	if err != nil {
		tb.Fatalf("decodeResult: %v", err)
	}
	b, err := json.Marshal(fr.wire())
	if err != nil {
		tb.Fatal(err)
	}
	return b
}

// wireJSON is the JSON of a local run's Stats.Wire().
func wireJSON(tb testing.TB, st *fuzz.Stats) []byte {
	tb.Helper()
	w := st.Wire()
	b, err := json.Marshal(&w)
	if err != nil {
		tb.Fatal(err)
	}
	return b
}

// The rendered result marshals to the local Stats.Wire() bytes where the
// statistics' slices come out nil or empty: a campaign of 0 iterations
// (per_iteration, findings and early_breakdown null; finding_seeds and
// triggered empty), which the service refuses to run, so it is checked on
// the encoding, and a campaign without findings, served end to end.
func TestResultMatchesLocalAtEmptyShapes(t *testing.T) {
	t.Run("zero-iterations", func(t *testing.T) {
		_, st, _ := localRun(t, testShape(0, 2, 8))
		want := wireJSON(t, st)
		for _, field := range []string{`"per_iteration":null`, `"findings":null`, `"finding_seeds":[]`, `"triggered":[]`, `"early_breakdown":null`} {
			if !bytes.Contains(want, []byte(field)) {
				t.Fatalf("the local wire lacks %s: %s", field, want)
			}
		}
		if got := renderedJSON(t, appendResult(nil, newFuzzResult(st))); !bytes.Equal(got, want) {
			t.Errorf("rendered result differs from the local wire:\n%s\nvs\n%s", got, want)
		}
	})
	t.Run("zero-findings", func(t *testing.T) {
		client, _ := newTestServer(t, Config{})
		shape := testShape(16, 2, 8)
		shape.SecretB = shape.SecretA // equal secrets: nothing can differ
		if _, err := client.Submit(&Spec{DUT: "lite", Options: shape}); err != nil {
			t.Fatalf("Submit: %v", err)
		}
		driveCampaign(t, client)
		res, err := client.Result("c1")
		if err != nil {
			t.Fatalf("Result: %v", err)
		}
		got, _ := json.Marshal(res.Stats)
		_, st, _ := localRun(t, shape)
		want := wireJSON(t, st)
		if !bytes.Contains(want, []byte(`"findings":null,"finding_seeds":[]`)) {
			t.Fatalf("the local run has findings: %s", want)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("served result differs from the local wire:\n%s\nvs\n%s", got, want)
		}
	})
}

// testResult is a small hand-made result: one finding with one state diff
// at point 3, named by a one-entry table.
func testResult() *fuzzResult {
	return &fuzzResult{
		stats: fuzz.StatsWire{
			PerIteration: []fuzz.IterStats{{Iteration: 1, NewPoints: 2, CumPoints: 2, CumTimingDiffs: 1}},
			FindingSeeds: []string{"# sonar testcase"},
			Triggered:    []int{1, 3},
		},
		findings: []*detect.Finding{{
			Affected:   []detect.Affected{{Idx: 1, Pos: 2, CCDB: 4}},
			StateDiffs: []detect.StateDiff{{PointID: 3, Reason: detect.ReasonStream, IntvlA: 2, IntvlB: monitor.NoInterval}},
		}},
		names: []detect.PointName{{ID: 3, Name: "lsu.a", Component: "lsu"}},
	}
}

// A result body that is truncated, has trailing bytes, or breaks a rule
// rendering relies on is an error, from decodeResult and from Client.Result.
func TestMalformedResultBodiesRejected(t *testing.T) {
	valid := appendResult(nil, testResult())
	if _, err := decodeResult(valid); err != nil {
		t.Fatalf("the valid body: %v", err)
	}
	with := func(edit func(fr *fuzzResult)) []byte {
		fr := testResult()
		edit(fr)
		return appendResult(nil, fr)
	}
	cases := []struct {
		name   string
		body   []byte
		phrase string
	}{
		{"truncated", valid[:len(valid)-1], "truncated body"},
		{"trailing bytes", append(append([]byte(nil), valid...), 0), "1 trailing bytes"},
		{"point missing from the name table", with(func(fr *fuzzResult) { fr.names[0].ID = 4 }), "point 3 is not in the name table"},
		{"name no finding references", with(func(fr *fuzzResult) {
			fr.names = append(fr.names, detect.PointName{ID: 7, Name: "exe.b", Component: "exe"})
		}), "name table point 7 is in no finding"},
		{"name table out of order", with(func(fr *fuzzResult) {
			fr.names = append([]detect.PointName{{ID: 5}}, fr.names...)
		}), "point 3 does not ascend past 5"},
		{"invalid reason", with(func(fr *fuzzResult) { fr.findings[0].StateDiffs[0].Reason = 0 }), "invalid reason bits 0"},
		{"triggered out of order", with(func(fr *fuzzResult) { fr.stats.Triggered = []int{3, 1} }), "point 1 does not ascend past 3"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if _, err := decodeResult(c.body); err == nil || !strings.Contains(err.Error(), c.phrase) {
				t.Errorf("decodeResult error %v, want one containing %q", err, c.phrase)
			}
			ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) { writeBinary(w, c.body) }))
			defer ts.Close()
			if _, err := NewClient(ts.URL).Result("c1"); err == nil || !strings.Contains(err.Error(), c.phrase) {
				t.Errorf("Client.Result error %v, want one containing %q", err, c.phrase)
			}
		})
	}
}

// A finished campaign's Stats is never written again, so the result route
// encodes it outside the controller's lock. Under the race detector, this
// encodes it over and over while another campaign runs to its end on the
// same controller and every other route reads or pokes the finished one.
func TestFinishedStatsNeverWritten(t *testing.T) {
	client, ct := newTestServer(t, Config{})
	shape := testShape(16, 2, 8)
	if _, err := client.Submit(&Spec{DUT: "lite", Options: shape}); err != nil {
		t.Fatalf("Submit: %v", err)
	}
	staleGrant, err := client.Acquire("w", nil)
	if err != nil || staleGrant == nil {
		t.Fatalf("Acquire: grant=%v err=%v", staleGrant, err)
	}
	staleRes, _, err := fuzz.ExecuteLease(liteExecFactory()(), staleGrant.Shape, &staleGrant.Lease, nil)
	if err != nil {
		t.Fatalf("ExecuteLease: %v", err)
	}
	if err := client.Report(staleGrant.LeaseID, staleRes); err != nil {
		t.Fatalf("Report: %v", err)
	}
	driveCampaign(t, client)
	_, st, err := ct.Result("c1")
	if err != nil {
		t.Fatalf("Result: %v", err)
	}
	want := appendResult(nil, newFuzzResult(st))

	stop, done := make(chan struct{}), make(chan string)
	go func() {
		defer close(done)
		for {
			select {
			case <-stop:
				return
			default:
			}
			_, st, err := ct.Result("c1")
			if err != nil {
				done <- err.Error()
				return
			}
			if !bytes.Equal(appendResult(nil, newFuzzResult(st)), want) {
				done <- "the finished campaign's result changed"
				return
			}
		}
	}()
	if _, err := client.Submit(&Spec{DUT: "lite", Options: testShape(24, 2, 8)}); err != nil {
		t.Fatalf("Submit: %v", err)
	}
	driveCampaign(t, client)
	for i := 0; i < 4; i++ {
		if err := client.Report(staleGrant.LeaseID, staleRes); !isStatus(err, http.StatusConflict) {
			t.Errorf("a stale report for the finished campaign: %v, want 409", err)
		}
		if _, err := client.Campaign("c1"); err != nil {
			t.Errorf("Campaign: %v", err)
		}
		if _, err := client.CheckpointFile("c1"); err != nil {
			t.Errorf("CheckpointFile: %v", err)
		}
		if _, err := client.Events("c1"); err != nil {
			t.Errorf("Events: %v", err)
		}
		if _, err := client.Result("c1"); err != nil {
			t.Errorf("Result: %v", err)
		}
		fetchMetrics(t, client)
	}
	close(stop)
	if msg, ok := <-done; ok {
		t.Error(msg)
	}
}

// resultAllocPerByte bounds what decoding and rendering a result may
// allocate per body byte. The densest body is a run of 3-byte state diffs
// (flags, point, reason): each decodes to a 56-byte detect.StateDiff and
// renders to an 80-byte detect.NamedDiff, an 8-byte text end and a reason
// text of at most 14 bytes here, about 53 bytes per body byte.
const resultAllocPerByte = 128

// allocated returns the bytes the runtime allocated while fn ran.
func allocated(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// FuzzDecodeResult feeds arbitrary bytes to the client's result decoder and
// renders what it accepts. The client trusts the server's bytes, so the
// decoder itself must hold the line: no input may panic or make it
// allocate more than resultAllocPerByte per body byte (plus a constant),
// every accepted body re-encodes to the same bytes, and an accepted body
// names every point its findings reference. The seed corpus
// (testdata/fuzz) holds real results and one reject per decoder check.
func FuzzDecodeResult(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		var fr *fuzzResult
		var err error
		if n := allocated(func() {
			if fr, err = decodeResult(data); err == nil {
				fr.wire()
			}
		}); n > resultAllocPerByte*uint64(len(data))+64<<10 {
			t.Fatalf("a %d-byte body allocated %d bytes", len(data), n)
		}
		if err != nil {
			return
		}
		if !bytes.Equal(appendResult(nil, fr), data) {
			t.Fatal("a decoded result re-encodes to different bytes")
		}
		for _, f := range fr.findings {
			for _, sd := range f.StateDiffs {
				if _, ok := detect.LookupPoint(fr.names, sd.PointID); !ok {
					t.Fatalf("accepted a finding at point %d, which the name table lacks", sd.PointID)
				}
			}
		}
	})
}

// Each FuzzDecodeResult seed reaches the verdict it is named after, so a
// change to the format that made a reject fail an earlier check, or a real
// result fail at all, cannot silently stop it covering its own.
func TestResultCorpusVerdicts(t *testing.T) {
	want := map[string]string{
		"real":                "",
		"zero-findings":       "",
		"zero-iterations":     "",
		"truncated":           "truncated body",
		"trailing-bytes":      "1 trailing bytes",
		"missing-name":        "is not in the name table",
		"unreferenced-name":   "is in no finding",
		"names-out-of-order":  "does not ascend",
		"invalid-reason":      "invalid reason bits",
		"count-beyond-body":   "exceeds the",
		"unknown-format-byte": "unknown format byte",
	}
	dir := filepath.Join("testdata", "fuzz", "FuzzDecodeResult")
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != len(want) {
		t.Errorf("corpus holds %d seeds, want %d", len(entries), len(want))
	}
	for _, e := range entries {
		phrase, ok := want[e.Name()]
		if !ok {
			t.Errorf("seed %s has no expected verdict", e.Name())
			continue
		}
		src, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		_, lit, _ := strings.Cut(strings.TrimSpace(string(src)), "\n")
		data, err := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(lit, "[]byte("), ")"))
		if err != nil {
			t.Fatalf("seed %s: %v", e.Name(), err)
		}
		_, err = decodeResult([]byte(data))
		switch {
		case phrase == "" && err != nil:
			t.Errorf("seed %s rejected: %v", e.Name(), err)
		case phrase != "" && (err == nil || !strings.Contains(err.Error(), phrase)):
			t.Errorf("seed %s: error %v, want one containing %q", e.Name(), err, phrase)
		}
	}
}

// A report writes each outcome's feedback vector in its ascending point
// order, and its decoder reads it back, refusing points that do not ascend:
// a repeated or out-of-order point has no canonical encoding.
func TestReportIntervalMapsAscend(t *testing.T) {
	res := &fuzz.LeaseResult{Outcomes: []fuzz.OutcomeWire{{Intvls: []fuzz.PointIntvl{{Point: 2, Intvl: 0}, {Point: 5, Intvl: 7}, {Point: 9, Intvl: 1}}}, {}}}
	body := AppendReport(nil, res)
	want := []byte{leaseFormat, 0, 0, 2, 0, 0, 0, 3, 4, 0, 10, 14, 18, 2, 0, 0, 0, 0}
	if !bytes.Equal(body, want) {
		t.Fatalf("report body % x, want % x", body, want)
	}
	back, err := DecodeReport(body)
	if err != nil {
		t.Fatalf("DecodeReport: %v", err)
	}
	if got := back.Outcomes[0].Intvls; !reflect.DeepEqual(got, res.Outcomes[0].Intvls) {
		t.Errorf("decoded intervals %v", got)
	}
	if back.Outcomes[1].Intvls != nil {
		t.Errorf("an empty interval list decoded to %v, want nil", back.Outcomes[1].Intvls)
	}
	for name, pair := range map[string][2]byte{"out of order": {18, 10}, "repeated": {10, 10}} {
		bad := bytes.Clone(body)
		bad[8], bad[12] = pair[0], pair[1]
		if _, err := DecodeReport(bad); err == nil || !strings.Contains(err.Error(), "does not ascend") {
			t.Errorf("%s points: error %v, want one that they do not ascend", name, err)
		}
	}
}

// The checkpoint download is the human-readable view of a finished fuzz
// campaign's result: its JSON payload's stats are the rendered result plus
// the observer's best-interval table.
func TestCheckpointStatsEmbedResult(t *testing.T) {
	client, _ := newTestServer(t, Config{})
	if _, err := client.Submit(&Spec{DUT: "lite", Options: testShape(24, 2, 8)}); err != nil {
		t.Fatalf("Submit: %v", err)
	}
	driveCampaign(t, client)
	res, err := client.Result("c1")
	if err != nil {
		t.Fatalf("Result: %v", err)
	}
	file, err := client.CheckpointFile("c1")
	if err != nil {
		t.Fatalf("CheckpointFile: %v", err)
	}
	_, payload, _ := bytes.Cut(file, []byte("\n"))
	var cp struct{ Stats fuzz.StatsWire }
	if err := json.Unmarshal(payload, &cp); err != nil {
		t.Fatalf("checkpoint payload: %v", err)
	}
	if len(cp.Stats.Best) == 0 {
		t.Error("the checkpoint's stats carry no best-interval table")
	}
	cp.Stats.Best = nil
	got, _ := json.Marshal(&cp.Stats)
	want, _ := json.Marshal(res.Stats)
	if !bytes.Equal(got, want) {
		t.Errorf("checkpoint stats without best differ from the result:\n%s\nvs\n%s", got, want)
	}
}
