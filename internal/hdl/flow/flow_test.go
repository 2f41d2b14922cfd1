package flow

import (
	"bytes"
	"strings"
	"testing"

	"sonar/internal/boom"
	"sonar/internal/hdl"
	"sonar/internal/hdl/gen"
	"sonar/internal/nutshell"
	"sonar/internal/trace"
)

// arbNet builds a small two-requestor arbiter: an attacker-steerable 1-bit
// select choosing between a secret-carrying data port and a public one,
// with valid signals so the point is monitorable.
func arbNet(t *testing.T) *hdl.Netlist {
	t.Helper()
	n := hdl.NewNetlist("arb")
	m := n.Module("arb")
	sel := m.Input("attacker_sel", 1)
	secret := m.Input("secret_data", 8)
	pub := m.Input("public_data", 8)
	v0 := m.Input("req0_valid", 1)
	v1 := m.Input("req1_valid", 1)
	_ = v0
	_ = v1
	root := m.Mux("grant", sel, secret, pub)
	out := m.Output("out", 8)
	out.AddSource(root.Out)
	return n
}

func TestTaintReachesArbiter(t *testing.T) {
	n := arbNet(t)
	au := Analyze(n, nil, Spec{
		Secret:   []string{"arb.secret_data"},
		Attacker: []string{"arb.attacker_sel"},
	})
	if !au.OK() {
		t.Fatalf("unexpected error findings: %v", au.Findings)
	}
	if len(au.Points) != 1 {
		t.Fatalf("want 1 point, got %d", len(au.Points))
	}
	pa := au.Points[0]
	if !pa.SelectTaint.Has(TaintAttacker) {
		t.Errorf("select taint = %s, want attacker", pa.SelectTaint)
	}
	if !pa.RequestTaint.Has(TaintSecret) {
		t.Errorf("request taint = %s, want secret", pa.RequestTaint)
	}
	if !pa.TaintPair {
		t.Error("taint pair not detected")
	}
	grant := n.MustSignal("arb.grant")
	if got := au.TaintOf(grant); !got.Pair() {
		t.Errorf("grant taint = %s, want SA", got)
	}
	if got := au.TaintOf(n.MustSignal("arb.public_data")); got != 0 {
		t.Errorf("public_data taint = %s, want none", got)
	}
}

func TestTaintCrossesRegisterFeedback(t *testing.T) {
	// secret -> wire -> reg -> prim -> (feeds the same wire's cone via a
	// second consumer): the register edge forces a second fixpoint pass.
	n := hdl.NewNetlist("regloop")
	m := n.Module("m")
	secret := m.Input("secret", 8)
	r := m.Reg("state", 8)
	next := m.Wire("next", 8)
	next.AddSource(secret)
	next.AddSource(r)
	r.AddSource(next)
	obs := m.Wire("obs", 8)
	obs.AddSource(r)
	au := Analyze(n, nil, Spec{Secret: []string{"m.secret"}})
	if got := au.TaintOf(obs); !got.Has(TaintSecret) {
		t.Errorf("obs taint = %s, want secret (through register)", got)
	}
	if au.Passes < 2 {
		t.Errorf("passes = %d, want >= 2 (register feedback)", au.Passes)
	}
}

func TestTaintCrossesCombinationalCycle(t *testing.T) {
	// secret -> mux -> back (a buffer) -> the same mux's false input, and
	// back feeds obs. No order settles the loop, so the mux, back and obs
	// all run after the levelized nodes, in index order (the mux, then obs,
	// then back); the fixpoint must still carry the secret to each of them.
	n := hdl.NewNetlist("combloop")
	m := n.Module("m")
	sel := m.Input("sel", 1)
	secret := m.Input("secret", 8)
	obs := m.Wire("obs", 8)
	back := m.Wire("back", 8)
	loop := m.Mux("loop", sel, secret, back)
	back.AddSource(loop.Out)
	obs.AddSource(back)
	au := Analyze(n, nil, Spec{Secret: []string{"m.secret"}})
	for _, s := range []*hdl.Signal{loop.Out, back, obs} {
		if got := au.TaintOf(s); got != TaintSecret {
			t.Errorf("%s taint = %s, want S", s.Name(), got)
		}
	}
	if got := au.TaintOf(sel); got != 0 {
		t.Errorf("sel taint = %s, want none", got)
	}
	if au.Passes != 3 {
		t.Errorf("passes = %d, want 3 (obs runs before back in the fallback, so it is reached one pass late)", au.Passes)
	}
}

func TestUnmatchedPatternIsError(t *testing.T) {
	n := arbNet(t)
	au := Analyze(n, nil, Spec{Secret: []string{"arb.no_such_port"}})
	if au.OK() {
		t.Fatal("want error findings for unmatched pattern")
	}
	if got := au.ByCode(CodeUnmatchedPattern); len(got) != 1 {
		t.Fatalf("unmatched-pattern findings = %v", got)
	}
}

func TestMatchGlob(t *testing.T) {
	cases := []struct {
		pat, name string
		want      bool
	}{
		{"a.b", "a.b", true},
		{"a.b", "a.bc", false},
		{"*", "anything", true},
		{"io_w*_bits_data", "io_w0_bits_data", true},
		{"io_w*_bits_data", "io_w0_bits_valid", false},
		{"*valid", "req0_valid", true},
		{"arb.req[*]", "arb.req[3]", true},
		{"a*b*c", "aXbYc", true},
		{"a*b*c", "aXcYb", false},
	}
	for _, c := range cases {
		if got := matchGlob(c.pat, c.name); got != c.want {
			t.Errorf("matchGlob(%q, %q) = %v, want %v", c.pat, c.name, got, c.want)
		}
	}
}

func TestDefaultSpecSeedsUndrivenSignals(t *testing.T) {
	n := arbNet(t)
	au := Analyze(n, nil, Spec{})
	if len(au.SecretSeeds) == 0 {
		t.Error("heuristic found no secret seeds (multi-bit inputs)")
	}
	if len(au.AttackerSeeds) == 0 {
		t.Error("heuristic found no attacker seeds (1-bit inputs)")
	}
	for _, s := range au.SecretSeeds {
		if s.Width() <= 1 {
			t.Errorf("secret seed %s has width %d", s.Name(), s.Width())
		}
	}
}

// TestAuditTopRankCoversMonitorable pins the acceptance criterion: on boom
// and nutshell, the audit's top-ranked points are exactly the points
// trace.Analyze marks Monitorable.
func TestAuditTopRankCoversMonitorable(t *testing.T) {
	duts := []struct {
		name string
		net  *hdl.Netlist
	}{
		{"boom", boom.New().Net},
		{"nutshell", nutshell.New().Net},
	}
	for _, d := range duts {
		t.Run(d.name, func(t *testing.T) {
			a := trace.Analyze(d.net)
			au := Analyze(d.net, a, Spec{})
			if !au.OK() {
				t.Fatalf("audit not clean: %v", au.Err())
			}
			mon := a.Monitored()
			if len(au.Points) != len(a.Points) {
				t.Fatalf("audited %d points, trace found %d", len(au.Points), len(a.Points))
			}
			want := make(map[int]bool, len(mon))
			for _, p := range mon {
				want[p.ID] = true
			}
			for i := 0; i < len(mon); i++ {
				if !au.Points[i].Monitorable {
					t.Fatalf("rank %d is not monitorable but %d monitorable points exist", i, len(mon))
				}
				if !want[au.Points[i].Point.ID] {
					t.Errorf("rank %d holds unexpected point %d", i, au.Points[i].Point.ID)
				}
			}
			ids := au.MonitorRankIDs()
			if len(ids) != len(mon) {
				t.Fatalf("MonitorRankIDs has %d entries, want %d", len(ids), len(mon))
			}
			if au.TaintedPoints() == 0 {
				t.Error("heuristic taint reached no point at all")
			}
		})
	}
}

// TestAuditDeterminism pins byte-identical exports across two independent
// elaborations and audits of the same design.
func TestAuditDeterminism(t *testing.T) {
	build := func() (*hdl.Netlist, *Audit) {
		net := nutshell.New().Net
		return net, Analyze(net, nil, Spec{})
	}
	_, au1 := build()
	_, au2 := build()
	if au1.Text() != au2.Text() {
		t.Error("Text() differs between runs")
	}
	j1, err := au1.JSON()
	if err != nil {
		t.Fatal(err)
	}
	j2, err := au2.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(j1, j2) {
		t.Error("JSON() differs between runs")
	}
	if au1.DOT() != au2.DOT() {
		t.Error("DOT() differs between runs")
	}
}

// TestGenAuditClean runs the audit over a spread of generated designs: the
// cross-check must agree with trace.Analyze on every one.
func TestGenAuditClean(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		n, err := gen.New(gen.Config{Seed: seed})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		au := Analyze(n, nil, Spec{})
		if err := au.Err(); err != nil {
			t.Errorf("seed %d: %v", seed, err)
		}
		if len(au.Surface) == 0 {
			t.Errorf("seed %d: empty surface", seed)
		}
	}
}

// TestDOTEscaping pins the shared escaping helper on a netlist with
// bracketed/indexed and quote-bearing signal names, for both the trace DOT
// exporter and the audit DOT exporter.
func TestDOTEscaping(t *testing.T) {
	n := hdl.NewNetlist("esc")
	m := n.Module("top")
	sel := m.Input(`sel[0]`, 1)
	a := m.Input(`req[0].bits"x"`, 8)
	b := m.Input(`req[1].bits`, 8)
	v0 := m.Input(`req[0].valid`, 1)
	_ = v0
	root := m.Mux("grant", sel, a, b)
	out := m.Output("out", 8)
	out.AddSource(root.Out)

	an := trace.Analyze(n)
	if len(an.Points) != 1 {
		t.Fatalf("want 1 point, got %d", len(an.Points))
	}
	dot := an.Points[0].DOT()
	if !strings.Contains(dot, `\"x\"`) {
		t.Errorf("trace DOT does not escape quotes:\n%s", dot)
	}
	if strings.Contains(dot, "\nsel: ") {
		t.Errorf("trace DOT leaks a raw newline into a label:\n%s", dot)
	}

	au := Analyze(n, nil, Spec{})
	adot := au.DOT()
	if !strings.Contains(adot, `\"x\"`) {
		t.Errorf("audit DOT does not escape quotes:\n%s", adot)
	}
	if !strings.Contains(adot, `req[1].bits`) {
		t.Errorf("audit DOT lost bracketed names:\n%s", adot)
	}
	for _, line := range strings.Split(adot, "\n") {
		if strings.Count(line, `"`)-strings.Count(line, `\"`)*2 > 2 && strings.Contains(line, "label=") {
			t.Errorf("unescaped quote inside a label: %s", line)
		}
	}
}

func TestEscapeLabel(t *testing.T) {
	cases := []struct{ in, want string }{
		{`plain`, `plain`},
		{"a\nb", `a\nb`},
		{`q"q`, `q\"q`},
		{`back\slash`, `back\\slash`},
		{`idx[3]`, `idx[3]`},
	}
	for _, c := range cases {
		if got := trace.EscapeLabel(c.in); got != c.want {
			t.Errorf("EscapeLabel(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}
