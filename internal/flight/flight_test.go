package flight_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"stars/internal/flight"
	"stars/internal/provenance"
	"stars/internal/sqlparse"
	"stars/internal/star"
	"stars/internal/workload"

	"stars/internal/obs"
	"stars/internal/opt"
)

// fixedClock returns a deterministic Now advancing one second per call.
func fixedClock() func() time.Time {
	t := time.Date(2026, 8, 9, 12, 0, 0, 0, time.UTC)
	return func() time.Time {
		t = t.Add(time.Second)
		return t
	}
}

// rec builds a successful record for template tmpl.
func rec(tmpl, fp string, wall time.Duration) flight.Record {
	return flight.Record{
		Template: tmpl, SQL: tmpl, Status: 200, PlanFP: fp,
		WallNS: int64(wall), EstCost: 10,
	}
}

func newRecorder(t *testing.T, cfg flight.Config) *flight.Recorder {
	t.Helper()
	if cfg.Now == nil {
		cfg.Now = fixedClock()
	}
	if cfg.CatalogEpoch == "" {
		cfg.CatalogEpoch = "epoch-a"
	}
	if cfg.RulesHash == "" {
		cfg.RulesHash = "rules-a"
	}
	return flight.New(cfg)
}

func TestWatchdogPlanFlip(t *testing.T) {
	r := newRecorder(t, flight.Config{})
	if o := r.Observe(rec("Q", "fp1", time.Millisecond)); len(o.Triggers) != 0 {
		t.Fatalf("first sight triggered: %+v", o.Triggers)
	}
	if o := r.Observe(rec("Q", "fp1", time.Millisecond)); len(o.Triggers) != 0 {
		t.Fatalf("steady state triggered: %+v", o.Triggers)
	}
	o := r.Observe(rec("Q", "fp2", time.Millisecond))
	if o.Kind() != flight.KindPlanFlip {
		t.Fatalf("kind = %q, want plan_flip (triggers %+v)", o.Kind(), o.Triggers)
	}
	if o.Prev == nil || o.Prev.PlanFP != "fp1" {
		t.Fatalf("prev = %+v, want fp1", o.Prev)
	}
	if o.Triggers[0].PrevFP != "fp1" {
		t.Fatalf("trigger prev fp = %q", o.Triggers[0].PrevFP)
	}
	// A fingerprint change accompanied by a new catalog epoch is not a
	// flip — the inputs changed.
	n := rec("Q", "fp3", time.Millisecond)
	n.CatalogEpoch = "epoch-b"
	if o := r.Observe(n); o.Kind() == flight.KindPlanFlip {
		t.Fatalf("epoch change still flagged as flip: %+v", o.Triggers)
	}
	// Same for a rules-hash change.
	n = rec("Q", "fp4", time.Millisecond)
	n.CatalogEpoch = "epoch-b"
	n.RulesHash = "rules-b"
	if o := r.Observe(n); o.Kind() == flight.KindPlanFlip {
		t.Fatalf("rules change still flagged as flip: %+v", o.Triggers)
	}
}

// TestWatchdogFlipNeedsSameSQL: two literals of one template planning to
// different fingerprints is not a flip — the inputs differ. A flip is
// judged against the latest record with the identical SQL text, which is
// the incident's Prev, however many other literals came in between.
func TestWatchdogFlipNeedsSameSQL(t *testing.T) {
	r := newRecorder(t, flight.Config{})
	lit := func(sql, fp string) flight.Record {
		n := rec("Q ?", fp, time.Millisecond)
		n.SQL = sql
		return n
	}
	r.Observe(lit("Q 1", "fp1"))
	if o := r.Observe(lit("Q 2", "fp2")); len(o.Triggers) != 0 || o.Prev != nil {
		t.Fatalf("a new literal flagged: prev %+v, triggers %+v", o.Prev, o.Triggers)
	}
	if o := r.Observe(lit("Q 1", "fp1")); len(o.Triggers) != 0 || o.Prev == nil || o.Prev.SQL != "Q 1" {
		t.Fatalf("a repeated literal with its own plan flagged: prev %+v, triggers %+v", o.Prev, o.Triggers)
	}
	r.Observe(lit("Q 3", "fp3"))
	o := r.Observe(lit("Q 2", "fp4"))
	if o.Kind() != flight.KindPlanFlip {
		t.Fatalf("same SQL, new plan: kind %q (triggers %+v)", o.Kind(), o.Triggers)
	}
	if o.Prev == nil || o.Prev.SQL != "Q 2" || o.Prev.PlanFP != "fp2" || o.Triggers[0].PrevFP != "fp2" {
		t.Fatalf("prev = %+v, trigger %+v; want the earlier Q 2 record", o.Prev, o.Triggers[0])
	}
}

func TestWatchdogLatency(t *testing.T) {
	r := newRecorder(t, flight.Config{
		MinSamples: 3, LatencyFactor: 2, LatencyFloor: time.Microsecond,
	})
	for i := 0; i < 3; i++ {
		if o := r.Observe(rec("Q", "fp1", time.Millisecond)); len(o.Triggers) != 0 {
			t.Fatalf("warmup %d triggered: %+v", i, o.Triggers)
		}
	}
	// 3 samples at 1ms; 2x baseline = 2ms. 3ms must trigger.
	o := r.Observe(rec("Q", "fp1", 3*time.Millisecond))
	if o.Kind() != flight.KindLatency {
		t.Fatalf("kind = %q, want latency (%+v)", o.Kind(), o.Triggers)
	}
	tr := o.Triggers[0]
	if tr.Samples != 3 || tr.BaselineNS != float64(time.Millisecond) {
		t.Fatalf("baseline context = %+v", tr)
	}
	// Below the absolute floor nothing fires even when the ratio is wild.
	r2 := newRecorder(t, flight.Config{
		MinSamples: 1, LatencyFactor: 2, LatencyFloor: time.Second,
	})
	r2.Observe(rec("Q", "fp1", time.Microsecond))
	if o := r2.Observe(rec("Q", "fp1", 100*time.Microsecond)); len(o.Triggers) != 0 {
		t.Fatalf("sub-floor latency triggered: %+v", o.Triggers)
	}
	// Below MinSamples nothing fires.
	r3 := newRecorder(t, flight.Config{
		MinSamples: 5, LatencyFactor: 2, LatencyFloor: time.Microsecond,
	})
	r3.Observe(rec("Q", "fp1", time.Millisecond))
	if o := r3.Observe(rec("Q", "fp1", time.Second)); len(o.Triggers) != 0 {
		t.Fatalf("under-sampled latency triggered: %+v", o.Triggers)
	}
}

func TestWatchdogQError(t *testing.T) {
	r := newRecorder(t, flight.Config{QErrorThreshold: 50})
	n := rec("Q", "fp1", time.Millisecond)
	n.Executed, n.MaxQError = true, 49
	if o := r.Observe(n); len(o.Triggers) != 0 {
		t.Fatalf("below-threshold Q-error triggered: %+v", o.Triggers)
	}
	n = rec("Q", "fp1", time.Millisecond)
	n.Executed, n.MaxQError = true, 50
	o := r.Observe(n)
	if o.Kind() != flight.KindQError {
		t.Fatalf("kind = %q, want qerror (%+v)", o.Kind(), o.Triggers)
	}
	// Unexecuted requests are never judged on Q-error.
	n = rec("Q", "fp1", time.Millisecond)
	n.MaxQError = 1e9
	if o := r.Observe(n); len(o.Triggers) != 0 {
		t.Fatalf("unexecuted request triggered qerror: %+v", o.Triggers)
	}
}

func TestTriggerPriority(t *testing.T) {
	// A record that flips, blows the Q-error budget, and is slow at once
	// files under plan_flip, with triggers sorted by priority.
	r := newRecorder(t, flight.Config{
		MinSamples: 1, LatencyFactor: 2, LatencyFloor: time.Microsecond,
		QErrorThreshold: 10,
	})
	r.Observe(rec("Q", "fp1", time.Millisecond))
	n := rec("Q", "fp2", 10*time.Millisecond)
	n.Executed, n.MaxQError = true, 100
	o := r.Observe(n)
	if len(o.Triggers) != 3 {
		t.Fatalf("triggers = %+v, want 3", o.Triggers)
	}
	if o.Kind() != flight.KindPlanFlip {
		t.Fatalf("kind = %q, want plan_flip", o.Kind())
	}
	inc, err := r.File(o, flight.Capture{SQL: n.SQL, Template: n.Template})
	if err != nil {
		t.Fatalf("File: %v", err)
	}
	kinds := []string{inc.Triggers[0].Kind, inc.Triggers[1].Kind, inc.Triggers[2].Kind}
	want := []string{flight.KindPlanFlip, flight.KindQError, flight.KindLatency}
	for i := range want {
		if kinds[i] != want[i] {
			t.Fatalf("trigger order = %v, want %v", kinds, want)
		}
	}
	if inc.Kind != flight.KindPlanFlip || inc.ID != "inc-000001-plan_flip" {
		t.Fatalf("incident = %s/%s", inc.ID, inc.Kind)
	}
}

func TestFailuresRingOnlyAndBounds(t *testing.T) {
	r := newRecorder(t, flight.Config{RingSize: 4, HistorySize: 2, MaxTemplates: 2})
	// Failures enter the ring but never the history.
	bad := flight.Record{Template: "Q", SQL: "Q", Status: 400}
	if o := r.Observe(bad); o.Prev != nil || len(o.Triggers) != 0 {
		t.Fatalf("failure judged: %+v", o)
	}
	if got := len(r.Templates()); got != 0 {
		t.Fatalf("failure created a template history (%d)", got)
	}
	// Ring is bounded and ordered oldest-first.
	for i := 0; i < 6; i++ {
		r.Observe(rec("Q", "fp1", time.Millisecond))
	}
	ring := r.Recent()
	if len(ring) != 4 {
		t.Fatalf("ring len = %d, want 4", len(ring))
	}
	for i := 1; i < len(ring); i++ {
		if ring[i].Seq != ring[i-1].Seq+1 {
			t.Fatalf("ring not sequential: %+v", ring)
		}
	}
	// History bounded: baseline reflects only the last HistorySize records.
	r.Observe(rec("Q", "fp1", 5*time.Millisecond))
	r.Observe(rec("Q", "fp1", 5*time.Millisecond))
	o := r.Observe(rec("Q", "fp1", 5*time.Millisecond))
	if o.Samples != 2 || o.BaselineNS != float64(5*time.Millisecond) {
		t.Fatalf("history not bounded: samples=%d baseline=%v", o.Samples, o.BaselineNS)
	}
	// Template census bounded: a third template is ring-only.
	r.Observe(rec("Q2", "fp1", time.Millisecond))
	r.Observe(rec("Q3", "fp1", time.Millisecond))
	r.Observe(rec("Q4", "fp1", time.Millisecond))
	if got := r.Stats().Templates; got != 2 {
		t.Fatalf("templates = %d, want 2 (bounded)", got)
	}
}

func TestIncidentStoreBounds(t *testing.T) {
	r := newRecorder(t, flight.Config{MaxIncidents: 2, QErrorThreshold: 1})
	for i := 0; i < 3; i++ {
		n := rec("Q", "fp1", time.Millisecond)
		n.Executed, n.MaxQError = true, 10
		o := r.Observe(n)
		if _, err := r.File(o, flight.Capture{SQL: n.SQL}); err != nil {
			t.Fatalf("File: %v", err)
		}
	}
	incs := r.Incidents()
	if len(incs) != 2 {
		t.Fatalf("store len = %d, want 2", len(incs))
	}
	if incs[0].ID != "inc-000002-qerror" || incs[1].ID != "inc-000003-qerror" {
		t.Fatalf("wrong survivors: %s, %s", incs[0].ID, incs[1].ID)
	}
	st := r.Stats()
	if st.IncidentsTotal != 3 || st.Dropped != 1 || st.Incidents != 2 {
		t.Fatalf("stats = %+v", st)
	}
	if r.Incident("inc-000003-qerror") == nil || r.Incident("inc-000001-qerror") != nil {
		t.Fatal("Incident lookup wrong")
	}
}

func TestIncidentBundleBitStable(t *testing.T) {
	dir := t.TempDir()
	bundle := func(sub string) []byte {
		r := flight.New(flight.Config{
			IncidentDir:  filepath.Join(dir, sub),
			Now:          fixedClock(),
			CatalogEpoch: "epoch-a", RulesHash: "rules-a",
		})
		r.Observe(rec("SELECT * FROM EMP WHERE SAL > ?", "fp1", time.Millisecond))
		o := r.Observe(rec("SELECT * FROM EMP WHERE SAL > ?", "fp2", 2*time.Millisecond))
		inc, err := r.File(o, flight.Capture{
			SQL:      "SELECT * FROM EMP WHERE SAL > 100",
			Template: "SELECT * FROM EMP WHERE SAL > ?",
			Rules:    "dummy", RulesHash: "rules-a",
			Options: flight.CapturedOptions{Parallelism: 1},
		})
		if err != nil {
			t.Fatalf("File: %v", err)
		}
		b, err := os.ReadFile(filepath.Join(dir, sub, inc.ID+".json"))
		if err != nil {
			t.Fatalf("read bundle: %v", err)
		}
		return b
	}
	a, b := bundle("a"), bundle("b")
	if !bytes.Equal(a, b) {
		t.Fatalf("bundles differ:\n%s\n---\n%s", a, b)
	}
	// And the file round-trips through ReadIncident.
	var inc flight.Incident
	if err := json.Unmarshal(a, &inc); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if inc.Schema != flight.IncidentSchema || inc.Kind != flight.KindPlanFlip {
		t.Fatalf("bundle = %s/%s", inc.Schema, inc.Kind)
	}
	if len(inc.Ring) != 2 {
		t.Fatalf("ring len = %d, want 2", len(inc.Ring))
	}
	path := filepath.Join(dir, "a", inc.ID+".json")
	got, err := flight.ReadIncident(path)
	if err != nil {
		t.Fatalf("ReadIncident: %v", err)
	}
	if got.ID != inc.ID || got.Record.PlanFP != "fp2" {
		t.Fatalf("round-trip = %+v", got)
	}
	// Schema guard.
	badPath := filepath.Join(dir, "bad.json")
	os.WriteFile(badPath, []byte(`{"schema":"stars/other/v9"}`), 0o644)
	if _, err := flight.ReadIncident(badPath); err == nil {
		t.Fatal("foreign schema accepted")
	}
}

func TestNilRecorderZeroAlloc(t *testing.T) {
	var r *flight.Recorder
	n := rec("Q", "fp", time.Millisecond)
	allocs := testing.AllocsPerRun(100, func() {
		o := r.Observe(n)
		if len(o.Triggers) != 0 {
			t.Fatal("nil recorder triggered")
		}
		r.Recent()
		r.Stats()
		r.Templates()
		r.Incidents()
		if _, err := r.File(o, flight.Capture{}); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("nil recorder allocates: %v allocs/op", allocs)
	}
}

// captureFor optimizes figure1 over EmpDept and builds the full capture the
// serving daemon would file, returning the capture and the fingerprint.
func captureFor(t *testing.T, parallelism int) (flight.Capture, string) {
	t.Helper()
	cat := workload.EmpDept()
	catJSON, err := cat.MarshalJSONIndent()
	if err != nil {
		t.Fatalf("catalog json: %v", err)
	}
	rules := star.DefaultRules()
	sql := "SELECT DEPT.DNO, EMP.NAME FROM DEPT, EMP WHERE DEPT.DNO = EMP.DNO AND DEPT.MGR = 'Haas'"
	g, err := sqlparse.Parse(sql, cat)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	res, err := opt.New(cat, opt.Options{
		Rules: rules, Obs: obs.NewSink(), Parallelism: parallelism,
	}).Optimize(g)
	if err != nil {
		t.Fatalf("optimize: %v", err)
	}
	dag, err := provenance.FromResult(res)
	if err != nil {
		t.Fatalf("provenance: %v", err)
	}
	var dagBuf bytes.Buffer
	if err := dag.WriteJSON(&dagBuf); err != nil {
		t.Fatalf("dag json: %v", err)
	}
	return flight.Capture{
		SQL:                sql,
		Template:           "tmpl",
		Rules:              star.Format(rules),
		Catalog:            catJSON,
		Provenance:         dagBuf.Bytes(),
		ProvenanceChecksum: dag.Checksum(),
		Options:            flight.CapturedOptions{Parallelism: parallelism},
	}, res.Best.Fingerprint()
}

func TestReplayIdentical(t *testing.T) {
	cap, fp := captureFor(t, 1)
	inc := &flight.Incident{
		Schema: flight.IncidentSchema, ID: "inc-000001-plan_flip",
		Kind:    flight.KindPlanFlip,
		Record:  flight.Record{SQL: cap.SQL, Template: cap.Template, Status: 200, PlanFP: fp},
		Capture: cap,
	}
	rr, err := flight.Replay(inc)
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	if !rr.FingerprintMatch() {
		t.Fatalf("fingerprint %s, captured %s", rr.Fingerprint, rr.CapturedFP)
	}
	if !rr.Identical {
		t.Fatalf("DAGs differ: %+v", rr.Diff)
	}
	if rr.Checksum != rr.CapturedChecksum {
		t.Fatalf("checksums differ: %s vs %s", rr.Checksum, rr.CapturedChecksum)
	}
}

func TestReplayDivergent(t *testing.T) {
	// Capture against EmpDept, then tamper the catalog stats in the
	// bundle (EMP shrinks 10000 -> 10): the replay must choose and derive
	// differently and say so.
	cap, fp := captureFor(t, 1)
	tampered := bytes.Replace(cap.Catalog, []byte(`"card": 10000`), []byte(`"card": 10`), 1)
	if bytes.Equal(tampered, cap.Catalog) {
		t.Fatalf("tamper did not apply; catalog:\n%s", cap.Catalog)
	}
	cap.Catalog = tampered
	inc := &flight.Incident{
		Schema: flight.IncidentSchema, ID: "inc-000001-plan_flip",
		Kind:    flight.KindPlanFlip,
		Record:  flight.Record{SQL: cap.SQL, Template: cap.Template, Status: 200, PlanFP: fp},
		Capture: cap,
	}
	rr, err := flight.Replay(inc)
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	if rr.Identical {
		t.Fatal("tampered catalog replayed to an identical DAG")
	}
	if rr.Diff == nil || !rr.Diff.Changed() {
		t.Fatalf("diff = %+v, want changed", rr.Diff)
	}
}

func TestReplayParallelismDeterminism(t *testing.T) {
	// A capture taken at parallelism 4 replays to the identical DAG —
	// the enumeration's determinism contract carried into replay.
	cap, fp := captureFor(t, 4)
	inc := &flight.Incident{
		Schema: flight.IncidentSchema, ID: "inc-000001-latency",
		Kind:    flight.KindLatency,
		Record:  flight.Record{SQL: cap.SQL, Status: 200, PlanFP: fp},
		Capture: cap,
	}
	rr, err := flight.Replay(inc)
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	if !rr.Identical || !rr.FingerprintMatch() {
		t.Fatalf("parallel capture diverged: identical=%v fp=%s/%s", rr.Identical, rr.Fingerprint, rr.CapturedFP)
	}
}

func TestReplayErrors(t *testing.T) {
	if _, err := flight.Replay(nil); err == nil {
		t.Fatal("nil incident accepted")
	}
	inc := &flight.Incident{Schema: flight.IncidentSchema, ID: "inc-x"}
	if _, err := flight.Replay(inc); err == nil {
		t.Fatal("catalog-less bundle accepted")
	}
	cap, _ := captureFor(t, 1)
	cap.Rules = ""
	if _, err := flight.Replay(&flight.Incident{Schema: flight.IncidentSchema, Capture: cap}); err == nil {
		t.Fatal("rules-less bundle accepted")
	}
}

func TestObserveConcurrent(t *testing.T) {
	// Hammer one recorder from many goroutines; bounds hold and the
	// census adds up. Run with -race for the memory-model half.
	r := newRecorder(t, flight.Config{RingSize: 8, HistorySize: 4})
	done := make(chan struct{})
	for w := 0; w < 8; w++ {
		go func(w int) {
			defer func() { done <- struct{}{} }()
			for i := 0; i < 50; i++ {
				o := r.Observe(rec(fmt.Sprintf("Q%d", w), "fp1", time.Millisecond))
				r.File(o, flight.Capture{})
			}
		}(w)
	}
	for w := 0; w < 8; w++ {
		<-done
	}
	st := r.Stats()
	if st.Records != 400 || st.Templates != 8 {
		t.Fatalf("stats = %+v", st)
	}
	if len(r.Recent()) != 8 {
		t.Fatalf("ring overflowed: %d", len(r.Recent()))
	}
}
