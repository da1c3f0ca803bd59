package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"

	"stars/internal/opt"
	"stars/internal/sqlparse"
	"stars/internal/workload"
)

func TestSameSeedSameOps(t *testing.T) {
	for _, tmpls := range [][]template{serveMixTemplates(), serveExecTemplates()} {
		a, b, c := newOpGen(7, 1, tmpls), newOpGen(7, 1, tmpls), newOpGen(8, 1, tmpls)
		differs := false
		for i := 0; i < 2000; i++ {
			x, y, z := a.next(), b.next(), c.next()
			if x != y {
				t.Fatalf("op %d: same seed gave %v and %v", i, x, y)
			}
			if x.lit >= tmpls[x.tmpl].lits {
				t.Fatalf("op %d: literal %d outside domain of %s", i, x.lit, tmpls[x.tmpl].name)
			}
			differs = differs || x != z
		}
		if !differs {
			t.Fatal("seeds 7 and 8 gave the same 2000 ops")
		}
	}
}

func TestZipfBlocks(t *testing.T) {
	for _, tmpls := range [][]template{serveMixTemplates(), serveExecTemplates()} {
		want := zipfCounts(len(tmpls), blockSize)
		sum := 0
		for i, n := range want {
			sum += n
			if n < 1 || (i > 0 && n > want[i-1]) {
				t.Fatalf("zipfCounts = %v, want a decreasing split with every rank present", want)
			}
		}
		if sum != blockSize {
			t.Fatalf("zipfCounts = %v sums to %d, want %d", want, sum, blockSize)
		}
		// Every block of blockSize consecutive ops holds the exact mix.
		g := newOpGen(3, 0, tmpls)
		for b := 0; b < 5; b++ {
			got := make([]int, len(tmpls))
			for i := 0; i < blockSize; i++ {
				got[g.next().tmpl]++
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("block %d counts %v, want %v", b, got, want)
				}
			}
		}
	}
	if got := zipfCounts(8, 100); got[0] != 40 || got[7] != 4 {
		t.Errorf("zipfCounts(8, 100) = %v, want 40 for rank 1 and 4 for rank 8", got)
	}
}

func TestEverySQLParses(t *testing.T) {
	for _, tmpls := range [][]template{serveMixTemplates(), serveExecTemplates()} {
		for _, tm := range tmpls {
			cat := tm.cat()
			seen := map[string]bool{}
			for lit := 0; lit < tm.lits; lit++ {
				sql := tm.render(lit)
				if seen[sql] {
					t.Errorf("%s: literal %d repeats %q", tm.name, lit, sql)
				}
				seen[sql] = true
				if _, err := sqlparse.Parse(sql, cat); err != nil {
					t.Errorf("%s literal %d: %v\n%s", tm.name, lit, err, sql)
				}
			}
		}
	}
	for _, q := range enumCatalogs() {
		if _, err := sqlparse.Parse(q.sql, q.cat); err != nil {
			t.Errorf("%s: %v", q.name, err)
		}
	}
}

// TestCorpusFormsMatchCorpus checks that each literal-free rendering is the
// workload.Corpus() query: same fingerprint from the parsed SQL as from the
// corpus graph, and the pinned one.
func TestCorpusFormsMatchCorpus(t *testing.T) {
	corpus := map[string]workload.CorpusEntry{}
	for _, e := range workload.Corpus() {
		corpus[e.Name] = e
	}
	fp := func(t *testing.T, name string, run func() (*opt.Result, error)) string {
		t.Helper()
		res, err := run()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		defer res.Release()
		return res.Best.Fingerprint()
	}
	for _, tm := range serveMixTemplates() {
		if !tm.corpus {
			continue
		}
		e, ok := corpus[tm.name]
		if !ok {
			t.Fatalf("%s is not a corpus query", tm.name)
		}
		g, err := sqlparse.Parse(tm.render(0), e.Cat)
		if err != nil {
			t.Fatal(err)
		}
		fromSQL := fp(t, tm.name, func() (*opt.Result, error) { return opt.New(e.Cat, opt.Options{Parallelism: 1}).Optimize(g) })
		fromGraph := fp(t, tm.name, func() (*opt.Result, error) { return opt.New(e.Cat, opt.Options{Parallelism: 1}).Optimize(e.Query) })
		if fromSQL != fromGraph || fromSQL != pinnedFingerprints[tm.name] {
			t.Errorf("%s: SQL plans %s, corpus graph %s, pinned %s", tm.name, fromSQL, fromGraph, pinnedFingerprints[tm.name])
		}
	}
	if testing.Short() {
		return
	}
	for _, q := range enumCatalogs() {
		g, err := sqlparse.Parse(q.sql, q.cat)
		if err != nil {
			t.Fatal(err)
		}
		fromSQL := fp(t, q.name, func() (*opt.Result, error) { return opt.New(q.cat, opt.Options{Parallelism: 2}).Optimize(g) })
		fromGraph := fp(t, q.name, func() (*opt.Result, error) { return opt.New(q.cat, opt.Options{Parallelism: 1}).Optimize(q.graph) })
		if fromSQL != fromGraph || fromSQL != pinnedFingerprints[q.name] {
			t.Errorf("%s: SQL plans %s, workload graph %s, pinned %s", q.name, fromSQL, fromGraph, pinnedFingerprints[q.name])
		}
	}
}

func TestTailPercentileNeedsTenBeyond(t *testing.T) {
	samples := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i)
		}
		return xs
	}
	if _, err := tailPercentile(samples(900), 99); err == nil {
		t.Error("p99 of 900 samples has 9 beyond it and must be refused")
	}
	v, err := tailPercentile(samples(1001), 99)
	if err != nil {
		t.Fatalf("p99 of 1001 samples: %v", err)
	}
	if v != 990 {
		t.Errorf("p99 = %v, want 990", v)
	}
	// Ties at the percentile do not count as beyond it.
	flat := make([]float64, 5000)
	if _, err := tailPercentile(flat, 99); err == nil {
		t.Error("p99 of constant samples has none beyond it and must be refused")
	}
	if _, err := tailPercentile(nil, 50); err == nil {
		t.Error("no samples must be refused")
	}
}

func TestMedianAndQuantile(t *testing.T) {
	if m := median([]float64{3, 1, 2, 10}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
	if m := median(nil); m != 0 {
		t.Errorf("median of nothing = %v", m)
	}
}

func TestSelfTimesAndChromeTrace(t *testing.T) {
	epoch := time.Now()
	r := newRecorder(epoch, 1)
	r.spans = []span{
		{name: "op", op: 1, parent: -1, start: 0, end: 100 * time.Microsecond},
		{name: "serve.request", op: 1, parent: 0, start: 0, end: 40 * time.Microsecond},
		{name: "direct", op: 1, parent: 0, start: 50 * time.Microsecond, end: 90 * time.Microsecond},
		{name: "opt.Optimize", op: 1, parent: 2, start: 55 * time.Microsecond, end: 85 * time.Microsecond},
		{name: "op", op: 2, parent: -1, start: 100 * time.Microsecond, end: 110 * time.Microsecond},
	}
	self := selfTimes([]*recorder{r})
	want := map[string][]float64{"op": {20, 10}, "serve.request": {40}, "direct": {10}, "opt.Optimize": {30}}
	for name, w := range want {
		got := self[name]
		if len(got) != len(w) {
			t.Fatalf("%s self times %v, want %v", name, got, w)
		}
		for i := range w {
			if got[i] != w[i] {
				t.Errorf("%s self times %v, want %v", name, got, w)
			}
		}
	}

	path := filepath.Join(t.TempDir(), "trace.json")
	if err := writeChromeTrace(path, []*recorder{r}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []chromeEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("trace is not JSON: %v", err)
	}
	var seq string
	depth := 0
	for _, e := range doc.TraceEvents {
		switch e.Phase {
		case "B":
			depth++
			seq += "B:" + e.Name + " "
		case "E":
			depth--
			seq += "E:" + e.Name + " "
		default:
			t.Fatalf("unexpected phase %q", e.Phase)
		}
		if depth < 0 {
			t.Fatal("E before its B")
		}
	}
	wantSeq := "B:op B:serve.request E:serve.request B:direct B:opt.Optimize E:opt.Optimize E:direct E:op B:op E:op "
	if seq != wantSeq || depth != 0 {
		t.Errorf("events %q, want %q", seq, wantSeq)
	}
}

func TestNilRecorderRecordsNothing(t *testing.T) {
	var r *recorder
	i := r.begin("op", 1, -1)
	r.end(i)
	if i != -1 {
		t.Errorf("nil recorder returned span %d", i)
	}
}

func TestPromValues(t *testing.T) {
	text := []byte("# HELP x\nserve_rejected_total 3\nflight_records_total 12\nflight_records_total_other 9\nx{a=\"b\"} 4\n")
	got := promValues(text, "serve_rejected_total", "flight_records_total", "missing")
	if got[0] != 3 || got[1] != 12 || got[2] != 0 {
		t.Errorf("promValues = %v", got)
	}
}

func TestBlockRateIsMedianOfBlocks(t *testing.T) {
	// Three seconds: ten ops spread over the first, two bunched late in
	// the second, ten over the third. Blocks of 22/3 = 7 completions.
	var done []time.Duration
	for i := 0; i < 10; i++ {
		done = append(done, time.Duration(i)*100*time.Millisecond)
	}
	done = append(done, 1900*time.Millisecond, 1950*time.Millisecond)
	for i := 0; i < 10; i++ {
		done = append(done, 2*time.Second+time.Duration(i)*100*time.Millisecond)
	}
	// Blocks: 0–0.7 s → 10/s; 0.7–2.2 s → 4.7/s; 2.2–2.9 s → 10/s.
	if r := blockRate(done, 3*time.Second); r != 10 {
		t.Errorf("blockRate = %v, want the median block, 10", r)
	}
	if r := blockRate(done[:5], 500*time.Millisecond); r != 10 {
		t.Errorf("sub-second window rate = %v, want 5 ops / 0.5 s", r)
	}
}

func TestBatchedTailIgnoresDisturbedBatches(t *testing.T) {
	// Three batches of 1001 samples 0..1000; the top 30 samples of the
	// first two batches are inflated by bursts of steal.
	var xs []float64
	for b := 0; b < 3; b++ {
		for i := 0; i <= 1000; i++ {
			v := float64(i)
			if b < 2 && i > 970 {
				v *= 10
			}
			xs = append(xs, v)
		}
	}
	v, batches, err := batchedTail(xs, 99)
	if err != nil || batches != 3 || v != 990 {
		t.Errorf("batchedTail = %v over %d batches (%v), want the undisturbed batch's 990 over 3", v, batches, err)
	}
	// Too few samples for two batches: the pooled percentile.
	v, batches, err = batchedTail(xs[:1500], 99)
	want, _ := tailPercentile(xs[:1500], 99)
	if err != nil || batches != 1 || v != want {
		t.Errorf("batchedTail of 1500 = %v over %d batches (%v), want pooled %v", v, batches, err, want)
	}
	if _, _, err := batchedTail(xs[:900], 99); err == nil {
		t.Error("900 samples must be refused")
	}
}
