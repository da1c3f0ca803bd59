package coverage_test

import (
	"encoding/json"
	"os"
	"strings"
	"testing"

	"stars/internal/coverage"
	"stars/internal/exec"
	"stars/internal/obs"
	"stars/internal/opt"
	"stars/internal/provenance"
	"stars/internal/star"
	"stars/internal/starcheck"
	"stars/internal/workload"
)

// runCorpus optimizes every corpus entry under the given rules with a
// metrics-only sink and accumulates the coverage tallies.
func runCorpus(t *testing.T, rules *star.RuleSet) *coverage.Accumulator {
	t.Helper()
	acc := coverage.NewAccumulator()
	for _, entry := range workload.Corpus() {
		res, err := opt.New(entry.Cat, opt.Options{Rules: rules, Obs: obs.NewMetricsSink()}).Optimize(entry.Query)
		if err != nil {
			t.Fatalf("%s: %v", entry.Name, err)
		}
		if res.Coverage == nil {
			t.Fatalf("%s: observed run returned no coverage", entry.Name)
		}
		acc.Add(res.Coverage)
	}
	return acc
}

func TestAccumulatorMergesRuns(t *testing.T) {
	acc := coverage.NewAccumulator()
	run := func(fired, winner int64) *opt.Coverage {
		return &opt.Coverage{
			Alts: []obs.AltCoverage{
				{Rule: "A", Alt: 1, Fired: fired, Built: fired, Winner: winner,
					PrunedBy: map[string]int64{"B#1": 1}},
				{Rule: "A", Alt: 2},
			},
			Veneers: []obs.VeneerCoverage{{Op: "SHIP", Injected: 2, Retained: 1}},
		}
	}
	acc.Add(run(3, 1))
	acc.Add(run(5, 0))
	acc.Add(nil) // an unobserved run adds nothing
	acc.Add(run(1, 0))
	acc.Add(run(1, 1))
	if acc.Runs() != 4 {
		t.Fatalf("Runs() = %d, want 4", acc.Runs())
	}
	rep := acc.Report(nil)
	if len(rep.Rules) != 1 || len(rep.Rules[0].Alternatives) != 2 {
		t.Fatalf("report shape: %+v", rep.Rules)
	}
	a1 := rep.Rules[0].Alternatives[0]
	if a1.Fired != 10 || a1.Winner != 2 || a1.PrunedBy["B#1"] != 4 {
		t.Errorf("A#1 tallies: %+v", a1)
	}
	if !a1.Exercised || rep.Rules[0].Alternatives[1].Exercised {
		t.Errorf("exercised flags wrong: %+v", rep.Rules[0].Alternatives)
	}
	if len(rep.Veneers) != 1 || rep.Veneers[0].Injected != 8 {
		t.Errorf("veneers: %+v", rep.Veneers)
	}
	if rep.Summary.Alternatives != 2 || rep.Summary.Exercised != 1 || rep.Summary.CoveragePct != 50 {
		t.Errorf("summary: %+v", rep.Summary)
	}
}

func TestReportZeroFillsUniverse(t *testing.T) {
	rules := star.DefaultRules()
	universe := 0
	for _, name := range rules.Names() {
		universe += len(rules.Get(name).Alts)
	}
	acc := coverage.NewAccumulator()
	acc.Add(&opt.Coverage{Alts: []obs.AltCoverage{{Rule: "JMeth", Alt: 1, Fired: 2, Built: 2}}})
	rep := acc.Report(rules)
	if rep.Summary.Alternatives != universe {
		t.Fatalf("universe = %d alternatives, report has %d", universe, rep.Summary.Alternatives)
	}
	if rep.Summary.Exercised != 1 {
		t.Errorf("exercised = %d, want 1", rep.Summary.Exercised)
	}
	// Positions and conditions come from the rule set.
	for _, rr := range rep.Rules {
		if rr.File == "" {
			t.Errorf("rule %s missing source file", rr.Rule)
		}
	}
	if rep.Schema != coverage.SchemaV1 {
		t.Errorf("schema = %q", rep.Schema)
	}
	if _, err := json.Marshal(rep); err != nil {
		t.Errorf("report not JSON-marshalable: %v", err)
	}
}

func TestCorpusCoversMostOfTheRepertoire(t *testing.T) {
	acc := runCorpus(t, nil)
	rep := acc.Report(star.DefaultRules())
	if rep.Runs != int64(len(workload.Corpus())) {
		t.Errorf("runs = %d, want %d", rep.Runs, len(workload.Corpus()))
	}
	if rep.Summary.CoveragePct < 75 {
		t.Errorf("corpus exercises only %.1f%% of the built-ins:\n%s",
			rep.Summary.CoveragePct, rep.Format())
	}
	if rep.Summary.Winning == 0 || rep.Summary.Retained == 0 {
		t.Errorf("no retained/winning attribution: %+v", rep.Summary)
	}
	// The distributed corpus entry must exercise the SHIP veneer.
	var ship bool
	for _, v := range rep.Veneers {
		if v.Op == "SHIP" && v.Injected > 0 {
			ship = true
		}
	}
	if !ship {
		t.Errorf("no SHIP veneer coverage: %+v", rep.Veneers)
	}
}

func TestDeadFixtureFlaggedAtZero(t *testing.T) {
	text, err := os.ReadFile("../../testdata/coverage/deadalt.star")
	if err != nil {
		t.Fatal(err)
	}
	override, err := star.ParseFile(string(text), "testdata/coverage/deadalt.star")
	if err != nil {
		t.Fatal(err)
	}
	rules := star.DefaultRules()
	rules.Merge(override)

	rep := runCorpus(t, rules).Report(rules)
	rep.CrossCheck(rules, starcheck.Config{})

	var arm *coverage.AltReport
	for i := range rep.Rules {
		if rep.Rules[i].Rule == "TableAccess" {
			arm = &rep.Rules[i].Alternatives[0]
		}
	}
	if arm == nil {
		t.Fatal("TableAccess missing from report")
	}
	if arm.Exercised || arm.Fired != 0 {
		t.Fatalf("the missing-path arm was exercised: %+v", arm)
	}
	if arm.Rejected == 0 {
		t.Errorf("the missing-path arm's guard was never evaluated: %+v", arm)
	}
	// The arm is lint-clean — even the semantic pass cannot decide
	// pathPrefix over an unknown catalog: its deadness is dynamic, not
	// static — exactly what the cross-check is for.
	if arm.StaticallyDead {
		t.Errorf("fixture arm must be statically clean, got flagged")
	}
	if !strings.Contains(arm.Cond, "pathPrefix") {
		t.Errorf("cond = %q", arm.Cond)
	}
	if rep.Meets(100) {
		t.Error("a dead arm cannot yield 100% coverage")
	}
	if !strings.Contains(rep.Format(), "NEVER EXERCISED") {
		t.Errorf("text report missing the dead marker:\n%s", rep.Format())
	}
	if !strings.Contains(rep.Annotate(), "[NEVER EXERCISED]") {
		t.Errorf("annotated view missing the dead marker:\n%s", rep.Annotate())
	}
}

// TestSemanticDeadFlowsIntoCrossCheck pins that the semantic codes (here
// SC101 from the closed storage-manager vocabulary) reach the coverage
// cross-check through StaticDeadCodes: the arm reports as statically dead,
// an expected zero rather than a workload gap.
func TestSemanticDeadFlowsIntoCrossCheck(t *testing.T) {
	override, err := star.ParseFile(`
star TableAccess(T, C, P) = {
  | ACCESS('isam', T, C, P) if stmgr(T, 'isam')
  | ACCESS('heap', T, C, P) if stmgr(T, 'heap')
  | ACCESS('btree', T, C, P) otherwise
}
`, "semdead-override.star")
	if err != nil {
		t.Fatal(err)
	}
	rules := star.DefaultRules()
	rules.Merge(override)

	rep := runCorpus(t, rules).Report(rules)
	rep.CrossCheck(rules, starcheck.Config{})

	for i := range rep.Rules {
		if rep.Rules[i].Rule != "TableAccess" {
			continue
		}
		arm := rep.Rules[i].Alternatives[0]
		if arm.Exercised {
			t.Fatalf("the 'isam' arm was exercised: %+v", arm)
		}
		if !arm.StaticallyDead {
			t.Errorf("the 'isam' arm must be flagged statically dead (SC101): %+v", arm)
		}
		return
	}
	t.Fatal("TableAccess missing from report")
}

func TestMarkStaticallyDead(t *testing.T) {
	// An unconditional first arm shadows the second in an exclusive rule —
	// SC011 — and an unreferenced rule is SC010-dead entirely.
	text := `
# lint: root
star Root(T, C, P) = {
  | ACCESS('heap', T, C, P)
  | ACCESS('btree', T, C, P)
}
star Orphan(T, C, P) = [
  | ACCESS('heap', T, C, P)
]
`
	rules, err := star.ParseFile(text, "dead_test.star")
	if err != nil {
		t.Fatal(err)
	}
	acc := coverage.NewAccumulator()
	rep := acc.Report(rules)
	rep.CrossCheck(rules, starcheck.Config{Roots: []string{"Root"}})
	byKey := map[string]coverage.AltReport{}
	for _, rr := range rep.Rules {
		for _, a := range rr.Alternatives {
			byKey[a.Key(rr.Rule)] = a
		}
	}
	if byKey["Root#1"].StaticallyDead {
		t.Error("live arm flagged dead")
	}
	if !byKey["Root#2"].StaticallyDead {
		t.Error("shadowed arm not flagged (SC011)")
	}
	if !byKey["Orphan#1"].StaticallyDead {
		t.Error("unreachable rule's arm not flagged (SC010)")
	}
	if rep.Summary.StaticallyDead != 2 {
		t.Errorf("summary statically dead = %d, want 2", rep.Summary.StaticallyDead)
	}
}

func TestAddDAGReplay(t *testing.T) {
	res, err := opt.New(workload.EmpDept(), opt.Options{Obs: obs.NewSink()}).Optimize(workload.Figure1Query())
	if err != nil {
		t.Fatal(err)
	}
	fromEvents := coverage.NewAccumulator()
	fromEvents.Add(res.Coverage)
	dag, err := provenance.FromResult(res)
	if err != nil {
		t.Fatal(err)
	}
	fromDAG := coverage.NewAccumulator()
	fromDAG.AddDAG(dag)
	if fromDAG.Runs() != 1 {
		t.Fatalf("replay runs = %d", fromDAG.Runs())
	}

	// The replay is an approximation (derived plans, not firing counts),
	// but both views must agree on which alternatives won.
	winners := func(rep *coverage.Report) map[string]bool {
		out := map[string]bool{}
		for _, rr := range rep.Rules {
			for _, a := range rr.Alternatives {
				if a.Winner > 0 {
					out[a.Key(rr.Rule)] = true
				}
			}
		}
		return out
	}
	evRep, dagRep := fromEvents.Report(nil), fromDAG.Report(nil)
	ew, dw := winners(evRep), winners(dagRep)
	if len(dw) == 0 {
		t.Fatalf("replay found no winners:\n%s", dagRep.Format())
	}
	for k := range dw {
		if !ew[k] {
			t.Errorf("replay winner %s absent from the event view", k)
		}
	}
	// Rejections replay too.
	var rejected bool
	for _, rr := range dagRep.Rules {
		for _, a := range rr.Alternatives {
			if a.Rejected > 0 {
				rejected = true
			}
		}
	}
	if len(dag.Rejections) > 0 && !rejected {
		t.Error("DAG rejections did not replay")
	}
}

func TestTemplate(t *testing.T) {
	cases := []struct{ in, want string }{
		{"SELECT * FROM EMP WHERE SAL > 100", "SELECT * FROM EMP WHERE SAL > ?"},
		{"SELECT * FROM EMP WHERE SAL > 250", "SELECT * FROM EMP WHERE SAL > ?"},
		{"SELECT  X\n  FROM T1   WHERE A='x''y'", "SELECT X FROM T1 WHERE A=?"},
		{"select name from emp where dno = 42;", "select name from emp where dno = ?"},
		{"SELECT T1.C FROM T1", "SELECT T1.C FROM T1"}, // identifier digits survive
		{"  WHERE A = 1.5  ", "WHERE A = ?"},
	}
	for _, c := range cases {
		if got := coverage.Template(c.in); got != c.want {
			t.Errorf("Template(%q) = %q, want %q", c.in, got, c.want)
		}
	}
	if coverage.Template("WHERE A > 1") != coverage.Template("WHERE A > 999") {
		t.Error("literal variants map to different templates")
	}
}

func TestTemplateEdgeCases(t *testing.T) {
	cases := []struct{ in, want string }{
		// Escaped quotes: '' inside a string stays inside the literal.
		{"WHERE NAME = 'O''Brien'", "WHERE NAME = ?"},
		{"WHERE NAME = 'it''s' AND DNO = 7", "WHERE NAME = ? AND DNO = ?"},
		// Negative and float literals: the sign is an operator character,
		// the digits (with any decimal point) become one '?'.
		{"WHERE BAL > -5", "WHERE BAL > -?"},
		{"WHERE BAL > -5.25", "WHERE BAL > -?"},
		{"WHERE R BETWEEN 0.5 AND 1.5", "WHERE R BETWEEN ? AND ?"},
		// IN-lists collapse to a single ?-group regardless of arity/spacing.
		{"WHERE DNO IN (1,2,3)", "WHERE DNO IN (?)"},
		{"WHERE DNO IN (1, 2)", "WHERE DNO IN (?)"},
		{"WHERE DNO IN ( 10 , 20 , 30 , 40 )", "WHERE DNO IN ( ? )"},
		{"WHERE NAME IN ('a','b','c')", "WHERE NAME IN (?)"},
		// A comma-free run of parameters is not a list and must survive.
		{"WHERE A = 1 ? 2", "WHERE A = ? ? ?"},
		// Select-list constants are a parameter list too.
		{"SELECT 1, 2, 3 FROM T", "SELECT ? FROM T"},
	}
	for _, c := range cases {
		if got := coverage.Template(c.in); got != c.want {
			t.Errorf("Template(%q) = %q, want %q", c.in, got, c.want)
		}
	}
	// The point of the collapse: IN-lists of different lengths share a
	// template, so the ledger aggregates them as one query shape.
	a := coverage.Template("SELECT NAME FROM EMP WHERE DNO IN (1, 2, 3)")
	b := coverage.Template("SELECT NAME FROM EMP WHERE DNO IN (4, 5)")
	if a != b {
		t.Errorf("IN-list arity leaks into template: %q vs %q", a, b)
	}
	if got := coverage.Template("SELECT NAME FROM EMP WHERE DNO IN (8)"); got != a {
		t.Errorf("single-element IN-list diverges: %q vs %q", got, a)
	}
}

func TestTemplateNoListAllocFree(t *testing.T) {
	// The collapse pass must not copy templates that contain no ?-list.
	const sql = "SELECT NAME FROM EMP WHERE DNO = ? AND SAL > ?"
	if got := coverage.Template(sql); got != sql {
		t.Fatalf("Template(%q) = %q", sql, got)
	}
}

func TestSketchQuantiles(t *testing.T) {
	var s coverage.Sketch
	if s.Quantile(0.5) != 0 || s.Digest() != nil {
		t.Error("empty sketch must report zero/nil")
	}
	for i := 0; i < 90; i++ {
		s.Observe(1.0)
	}
	for i := 0; i < 9; i++ {
		s.Observe(3.0)
	}
	s.Observe(40.0)
	if s.N() != 100 {
		t.Fatalf("N = %d", s.N())
	}
	if got := s.Quantile(0.50); got != 1 {
		t.Errorf("p50 = %v, want 1", got)
	}
	if got := s.Quantile(0.95); got != 3 {
		t.Errorf("p95 = %v, want 3", got)
	}
	if got := s.Quantile(0.999); got != 40 {
		t.Errorf("p99.9 = %v, want the observed max 40", got)
	}
	if s.Max() != 40 {
		t.Errorf("max = %v", s.Max())
	}
	d := s.Digest()
	if d == nil || d.Count != 100 || d.P50 != 1 || d.Max != 40 {
		t.Errorf("digest = %+v", d)
	}
}

func TestLedger(t *testing.T) {
	l := coverage.NewLedger(2)
	cov := &opt.Coverage{Alts: []obs.AltCoverage{{Rule: "JMeth", Alt: 1, Fired: 1, Built: 1, Winner: 1}}}
	feedback := []exec.Feedback{
		{Op: "JOIN", Fingerprint: "aaaa", Rows: 100, Loops: 1, Est: 50, QError: 2},
		{Op: "ACCESS", Fingerprint: "bbbb", Rows: 10, Loops: 1, Est: 10, QError: 1},
	}
	l.Record(coverage.Template("SELECT 1"), cov, feedback)
	l.Record(coverage.Template("SELECT 2"), cov, feedback) // same template: literals collapse
	l.Record("other", nil, nil)                            // failed request

	rep := l.Snapshot(nil)
	if rep.Schema != coverage.SchemaV1 || rep.Requests != 3 {
		t.Fatalf("header: %+v", rep)
	}
	if len(rep.Templates) != 2 {
		t.Fatalf("templates = %d, want 2 (literals must collapse)", len(rep.Templates))
	}
	tr := rep.Templates[0]
	if tr.Template != "SELECT ?" || tr.Requests != 2 || tr.Executions != 2 {
		t.Errorf("template 0: %+v", tr)
	}
	if tr.QError == nil || tr.QError.Count != 4 || tr.QError.Max != 2 {
		t.Errorf("template qerror: %+v", tr.QError)
	}
	if len(tr.Ops) != 2 || tr.Ops[0].Op != "JOIN" || tr.Ops[0].MaxQError != 2 {
		t.Errorf("ops: %+v", tr.Ops)
	}
	if rep.Templates[1].Executions != 0 {
		t.Errorf("optimize-only template executed: %+v", rep.Templates[1])
	}
	if rep.QError == nil || rep.QError.Count != 4 {
		t.Errorf("aggregate qerror: %+v", rep.QError)
	}
	if rep.Coverage == nil || rep.Coverage.Runs != 2 {
		t.Errorf("rolling coverage: %+v", rep.Coverage)
	}

	// Gauges derive from ledger state.
	reg := obs.NewRegistry()
	l.PublishMetrics(reg, nil)
	if v := reg.FloatGauge("qerror_p90").Value(); v != 2 {
		t.Errorf("qerror_p90 gauge = %v, want 2", v)
	}
	if v := reg.FloatGauge("coverage_ratio").Value(); v != 1 {
		t.Errorf("coverage_ratio = %v, want 1 (only JMeth#1 is in the nil-universe)", v)
	}
}

func TestLedgerBoundsTemplates(t *testing.T) {
	l := coverage.NewLedger(2)
	for _, tmpl := range []string{"a", "b", "c", "d"} {
		l.Record(tmpl, nil, []exec.Feedback{
			{Op: "JOIN", Fingerprint: "ffff", Rows: 1, Loops: 1, Est: 1, QError: 5},
		})
	}
	rep := l.Snapshot(nil)
	if len(rep.Templates) != 2 {
		t.Fatalf("templates = %d, want the bound 2", len(rep.Templates))
	}
	if rep.Requests != 4 {
		t.Errorf("requests = %d", rep.Requests)
	}
	// Overflow templates still feed the aggregate digest.
	if rep.QError == nil || rep.QError.Count != 4 {
		t.Errorf("aggregate digest lost overflow observations: %+v", rep.QError)
	}
}
