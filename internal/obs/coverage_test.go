package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// wireRoundTrip sends e through the NDJSON wire form consumers of the event
// stream read (/events, incident bundles) and decodes it back.
func wireRoundTrip(t *testing.T, e Event) WireEvent {
	t.Helper()
	var buf bytes.Buffer
	if err := EncodeNDJSON(&buf, e); err != nil {
		t.Fatal(err)
	}
	var w WireEvent
	if err := json.Unmarshal(buf.Bytes(), &w); err != nil {
		t.Fatal(err)
	}
	return w
}

func TestAltCoverageRoundTrip(t *testing.T) {
	in := AltCoverage{
		Rule: "JMeth", Alt: 3,
		Fired: 12, Rejected: 4, Built: 36, Retained: 9, Pruned: 5, Winner: 2,
		PrunedBy: map[string]int64{"JMeth#1": 3, "Glue": 2},
	}
	w := wireRoundTrip(t, in.Event())
	if w.Name != EvAltCoverage || w.A1 != "JMeth" || w.N1 != 3 {
		t.Fatalf("event header: %+v", w)
	}
	if want := "fired=12 rejected=4 built=36 retained=9 pruned=5 winner=2"; w.A2 != want {
		t.Errorf("tallies = %q, want %q", w.A2, want)
	}
	if want := "Glue:2 JMeth#1:3"; w.A3 != want {
		t.Errorf("dominators = %q, want %q", w.A3, want)
	}
}

func TestAltCoverageZeroRoundTrip(t *testing.T) {
	w := wireRoundTrip(t, AltCoverage{Rule: "TableAccess", Alt: 2}.Event())
	if want := "fired=0 rejected=0 built=0 retained=0 pruned=0 winner=0"; w.A2 != want {
		t.Errorf("zero tallies = %q, want %q", w.A2, want)
	}
	if w.A3 != "" {
		t.Errorf("empty dominator map must render empty, got %q", w.A3)
	}
}

func TestAltCoveragePackingIsDeterministic(t *testing.T) {
	c := AltCoverage{Rule: "R", Alt: 1,
		PrunedBy: map[string]int64{"b#2": 1, "a#1": 2, "c#3": 3}}
	first := c.Event()
	for i := 0; i < 20; i++ {
		if e := c.Event(); e != first {
			t.Fatalf("packing varies: %+v vs %+v", first, e)
		}
	}
	if !strings.Contains(first.A3, "a#1:2 b#2:1 c#3:3") {
		t.Errorf("dominators not sorted: %q", first.A3)
	}
}

func TestVeneerCoverageRoundTrip(t *testing.T) {
	w := wireRoundTrip(t, VeneerCoverage{Op: "SHIP", Injected: 7, Retained: 3, Winner: 1}.Event())
	if w.Name != EvVeneerCoverage || w.A1 != "SHIP" {
		t.Fatalf("event header: %+v", w)
	}
	if want := "injected=7 retained=3 winner=1"; w.A2 != want {
		t.Errorf("tallies = %q, want %q", w.A2, want)
	}
}

func TestKeepsEvents(t *testing.T) {
	var nilSink *Sink
	if nilSink.KeepsEvents() {
		t.Error("nil sink claims to keep events")
	}
	if !NewSink().KeepsEvents() {
		t.Error("recording sink denies keeping events")
	}
	if NewMetricsSink().KeepsEvents() {
		t.Error("metrics-only sink claims to keep events")
	}
}

func TestFloatGauge(t *testing.T) {
	var nilG *FloatGauge
	nilG.Set(3.5) // must not panic
	if v := nilG.Value(); v != 0 {
		t.Errorf("nil gauge value = %v", v)
	}

	r := NewRegistry()
	g := r.FloatGauge("qerror_p99")
	if g.Value() != 0 {
		t.Errorf("fresh gauge = %v", g.Value())
	}
	g.Set(2.75)
	if g.Value() != 2.75 {
		t.Errorf("after Set: %v", g.Value())
	}
	if r.FloatGauge("qerror_p99") != g {
		t.Error("FloatGauge not idempotent per name")
	}

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	text := b.String()
	if !strings.Contains(text, "# TYPE qerror_p99 gauge") || !strings.Contains(text, "qerror_p99 2.75") {
		t.Errorf("exposition missing float gauge:\n%s", text)
	}
}

func TestMergeSkipsFloatGauges(t *testing.T) {
	a, b := NewRegistry(), NewRegistry()
	b.FloatGauge("coverage_ratio").Set(0.5)
	b.Counter("x_total").Add(2)
	a.Merge(b)
	if v := a.FloatGauge("coverage_ratio").Value(); v != 0 {
		t.Errorf("Merge copied a float gauge: %v", v)
	}
	if v := a.Counter("x_total").Value(); v != 2 {
		t.Errorf("Merge lost a counter: %v", v)
	}
}
