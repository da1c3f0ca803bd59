package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"stars/internal/catalog"
	"stars/internal/exec"
	"stars/internal/opt"
	"stars/internal/plan"
	"stars/internal/serve"
	"stars/internal/sqlparse"
	"stars/internal/star"
	"stars/internal/storage"
	"stars/internal/workload"
)

// serveBench drives the daemon's handler in process: one default-config
// daemon per template, closed-loop clients, every response checked.
type serveBench struct {
	cfg     config
	tmpls   []template
	execute bool
	// The benchmark's own copies of each template's catalog, SQL and
	// request bodies, indexed [template][literal].
	cats   []*catalog.Catalog
	sqls   [][]string
	bodies [][][]byte
	expect [][]expectation

	servers  []*serve.Server
	handlers []http.Handler

	// clusters hold the same generated data as the daemons, for the traced
	// leg's direct execution; execMu serializes runs on them, because a
	// cluster's resource counters are per-run state.
	clusters []*storage.Cluster
	execMu   sync.Mutex
}

// expectation is one distinct SQL's correct answer, computed before the
// measured windows: the plan fingerprint a direct Optimize chooses and, for
// executed workloads, the oracle's rows (sorted, rendered as workload.Oracle
// renders them).
type expectation struct {
	fp   string
	rows []string
}

// dataSeed maps the workload seed to the data-generation seed (the daemon
// treats 0 as 1).
func dataSeed(seed int64) int64 {
	if seed == 0 {
		return 1
	}
	return seed
}

func runServe(cfg config, tmpls []template, execute bool) (*report, error) {
	b := &serveBench{cfg: cfg, tmpls: tmpls, execute: execute}
	rep := newReport(cfg, 1, cfg.clients)
	b.render()
	setup, err := timeSetup(serveSetupReps, b.buildServers)
	if err != nil {
		return nil, err
	}
	if err := b.expectations(rep); err != nil {
		return nil, err
	}

	var all []*clientOut
	warm, _ := b.loop(warmup(cfg), false)
	all = append(all, warm...)
	before := sampleRuntime(true)
	outs, elapsed := b.loop(cfg.leg(), false)
	after := sampleRuntime(false)
	all = append(all, outs...)
	w := measureWindow(before, after, countOps(outs))
	lat := latencies(outs)
	throughput := blockRate(completions(outs), elapsed)

	if !cfg.trace {
		rep.set("setup_s", setup, "s")
		rep.set("throughput_ops_s", throughput, "ops/s")
		rep.Notes["throughput_ops_s"] = fmt.Sprintf("median of ~1 s blocks; %d ops in %.1f s", w.ops, w.seconds)
		rep.set("latency_p50_ms", median(lat), "ms")
		p99, batches, err := batchedTail(lat, 99)
		if err != nil {
			rep.fail("latency_p99_ms: %v", err)
		}
		rep.set("latency_p99_ms", p99, "ms")
		rep.set("allocs_per_op", w.allocsPerOp, "count")
		rep.set("bytes_per_op", w.bytesPerOp, "bytes")
		rep.set("heap_live_mb", liveHeapMB(), "MB")
		runtime.KeepAlive(b.servers) // their retained state is what heap_live_mb measures
		rep.Samples = len(lat)
		rep.Notes["latency_p50_ms"] = fmt.Sprintf("%d samples, %d closed-loop clients", len(lat), cfg.clients)
		rep.Notes["latency_p99_ms"] = fmt.Sprintf("lowest of the p99s of %d consecutive batches", batches)
	} else {
		rep.set("gc.cpu_share", w.gcCPUShare, "ratio")
		rep.set("gc.cycles_per_kop", w.gcPerKop, "count")
		traced, tracedFor := b.loop(cfg.leg(), true)
		all = append(all, traced...)
		rep.set("trace.overhead_ratio", ratio(blockRate(completions(traced), tracedFor), throughput), "ratio")
		b.setTracedMetrics(rep, traced)
		if err := b.scrape(rep, all); err != nil {
			return nil, err
		}
	}
	rep.tally(all)
	return rep, nil
}

// warmup is the unmeasured lead-in that fills pools, caches and the flight
// recorder's per-template baselines before timing starts.
func warmup(cfg config) time.Duration {
	d := time.Duration(cfg.seconds) * time.Second / 10
	if d < 500*time.Millisecond {
		d = 500 * time.Millisecond
	}
	if d > 2*time.Second {
		d = 2 * time.Second
	}
	return d
}

// render builds every template's SQL and request bodies.
func (b *serveBench) render() {
	for _, t := range b.tmpls {
		b.cats = append(b.cats, t.cat())
		sqls := make([]string, t.lits)
		bodies := make([][]byte, t.lits)
		for lit := range sqls {
			sqls[lit] = t.render(lit)
			req := serve.OptimizeRequest{SQL: sqls[lit]}
			if b.execute {
				req.Execute, req.Analyze, req.Limit = true, true, -1
			}
			body, err := json.Marshal(req)
			if err != nil {
				panic(err) // a struct of strings, bools and ints always encodes
			}
			bodies[lit] = body
		}
		b.sqls = append(b.sqls, sqls)
		b.bodies = append(b.bodies, bodies)
	}
}

// buildServers is the timed set-up: a fresh default-config daemon per
// template (its data generated and loaded by serve.New), each answering
// /healthz.
func (b *serveBench) buildServers() error {
	b.servers, b.handlers = nil, nil
	for _, t := range b.tmpls {
		s, err := serve.New(serve.Config{Catalog: t.cat(), Demo: t.demo, Seed: dataSeed(b.cfg.seed)})
		if err != nil {
			return fmt.Errorf("%s: %w", t.name, err)
		}
		h := s.Handler()
		rr := httptest.NewRecorder()
		h.ServeHTTP(rr, httptest.NewRequest(http.MethodGet, "/healthz", nil))
		if rr.Code != http.StatusOK {
			return fmt.Errorf("%s: /healthz answered %d", t.name, rr.Code)
		}
		b.servers = append(b.servers, s)
		b.handlers = append(b.handlers, h)
	}
	return nil
}

// expectations computes every distinct SQL's expected answer by the direct
// path, and checks corpus-form fingerprints against the pinned ones.
func (b *serveBench) expectations(rep *report) error {
	b.expect = make([][]expectation, len(b.tmpls))
	b.clusters = make([]*storage.Cluster, len(b.tmpls))
	for i, t := range b.tmpls {
		cat := b.cats[i]
		var cl *storage.Cluster
		if b.execute {
			cl = storage.NewCluster(cat.Sites...)
			if t.demo {
				workload.PopulateEmpDept(cl, cat, dataSeed(b.cfg.seed))
			} else {
				workload.Populate(cl, cat, dataSeed(b.cfg.seed))
			}
		}
		b.expect[i] = make([]expectation, t.lits)
		for lit, sql := range b.sqls[i] {
			g, err := sqlparse.Parse(sql, cat)
			if err != nil {
				return fmt.Errorf("%s literal %d: %w", t.name, lit, err)
			}
			res, err := opt.New(cat, opt.Options{Parallelism: 1}).Optimize(g)
			if err != nil {
				return fmt.Errorf("%s literal %d: %w", t.name, lit, err)
			}
			e := expectation{fp: res.Best.Fingerprint()}
			res.Release()
			if lit == 0 && t.corpus && e.fp != pinnedFingerprints[t.name] {
				rep.fail("%s: corpus query plans %s, pinned %s", t.name, e.fp, pinnedFingerprints[t.name])
			}
			if cl != nil {
				e.rows = workload.Oracle(cl, cat, g)
			}
			b.expect[i][lit] = e
		}
		if b.cfg.trace {
			b.clusters[i] = cl
		}
	}
	return nil
}

// clientOut is one client goroutine's share of a leg.
type clientOut struct {
	epoch     time.Time       // start of the leg
	lat       []float64       // served latency, ms
	done      []time.Duration // completion times since epoch
	served    []int64         // requests per template
	attempted int64
	failed    int64
	errs      []string
	rec       *recorder
	tally     layerTally
}

func (o *clientOut) fail(err error) {
	o.failed++
	if len(o.errs) < 5 {
		o.errs = append(o.errs, err.Error())
	}
}

// loop runs the closed loop for d: every client issues its seeded request
// sequence from the start, one request at a time. Traced legs also replay
// each op through the layer functions and record spans.
func (b *serveBench) loop(d time.Duration, traced bool) ([]*clientOut, time.Duration) {
	outs := make([]*clientOut, b.cfg.clients)
	epoch := time.Now()
	deadline := epoch.Add(d)
	var wg sync.WaitGroup
	for c := range outs {
		out := &clientOut{epoch: epoch, served: make([]int64, len(b.tmpls))}
		if traced {
			out.rec = newRecorder(epoch, c+1)
		}
		outs[c] = out
		gen := newOpGen(b.cfg.seed, c, b.tmpls)
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for n := int64(0); time.Now().Before(deadline); n++ {
				b.do(gen.next(), out, int64(c)<<40|n)
			}
		}(c)
	}
	wg.Wait()
	return outs, time.Since(epoch)
}

// do issues one request, checks its response, and in traced legs replays it.
func (b *serveBench) do(o op, out *clientOut, id int64) {
	rec := out.rec
	root := rec.begin("op", id, -1)
	sp := rec.begin("serve.request", id, root)
	t0 := time.Now()
	rr := httptest.NewRecorder()
	b.handlers[o.tmpl].ServeHTTP(rr, httptest.NewRequest(http.MethodPost, "/optimize", bytes.NewReader(b.bodies[o.tmpl][o.lit])))
	lat := time.Since(t0)
	rec.end(sp)
	out.attempted++
	out.served[o.tmpl]++
	out.lat = append(out.lat, float64(lat)/float64(time.Millisecond))
	out.done = append(out.done, time.Since(out.epoch))

	ck := rec.begin("client.check", id, root)
	err := b.check(o, rr, out)
	rec.end(ck)
	if err == nil && rec != nil {
		err = b.replay(o, out, id, root)
	}
	rec.end(root)
	if err != nil {
		out.fail(fmt.Errorf("%s literal %d: %w", b.tmpls[o.tmpl].name, o.lit, err))
	}
}

// servedResponse is the part of serve.OptimizeResponse the checks read.
type servedResponse struct {
	Plan struct {
		Fingerprint string `json:"fingerprint"`
	} `json:"plan"`
	Stats struct {
		Events int64 `json:"events"`
	} `json:"stats"`
	Execution *struct {
		Rows      [][]string `json:"rows"`
		Truncated bool       `json:"truncated"`
	} `json:"execution"`
}

// check compares a response with its expectation.
func (b *serveBench) check(o op, rr *httptest.ResponseRecorder, out *clientOut) error {
	if rr.Code != http.StatusOK {
		return fmt.Errorf("status %d: %s", rr.Code, strings.TrimSpace(rr.Body.String()))
	}
	var resp servedResponse
	if err := json.Unmarshal(rr.Body.Bytes(), &resp); err != nil {
		return fmt.Errorf("decode response: %w", err)
	}
	out.tally.events += resp.Stats.Events
	out.tally.respBytes += int64(rr.Body.Len())
	exp := b.expect[o.tmpl][o.lit]
	if resp.Plan.Fingerprint != exp.fp {
		return fmt.Errorf("served plan %s, expected %s", resp.Plan.Fingerprint, exp.fp)
	}
	if !b.execute {
		return nil
	}
	if resp.Execution == nil || resp.Execution.Truncated {
		return fmt.Errorf("missing or truncated execution")
	}
	rows := make([]string, len(resp.Execution.Rows))
	for i, r := range resp.Execution.Rows {
		rows[i] = strings.Join(r, "|")
	}
	sort.Strings(rows)
	return sameRows(rows, exp.rows)
}

func sameRows(got, want []string) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d rows, oracle has %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			return fmt.Errorf("row %q, oracle has %q", got[i], want[i])
		}
	}
	return nil
}

// replay performs the served op again through the public layer functions,
// one span per call: parse, optimize (the self-profiler on its sink),
// explain and, for executed workloads, run. A separate DefaultRules call
// measures the rule-set load the optimizer repeats inside Optimize.
func (b *serveBench) replay(o op, out *clientOut, id int64, root int) error {
	rec := out.rec
	cat := b.cats[o.tmpl]
	exp := b.expect[o.tmpl][o.lit]

	s := rec.begin("star.DefaultRules", id, root)
	star.DefaultRules()
	rec.end(s)

	d := rec.begin("direct", id, root)
	defer rec.end(d)
	s = rec.begin("sqlparse.Parse", id, d)
	g, err := sqlparse.Parse(b.sqls[o.tmpl][o.lit], cat)
	rec.end(s)
	if err != nil {
		return fmt.Errorf("direct parse: %w", err)
	}
	sink := newProfSink()
	s = rec.begin("opt.Optimize", id, d)
	ts := time.Now()
	res, err := opt.New(cat, opt.Options{Parallelism: 1, Obs: sink}).Optimize(g)
	wall := time.Since(ts)
	rec.end(s)
	if err != nil {
		return fmt.Errorf("direct optimize: %w", err)
	}
	defer res.Release()
	out.tally.addOptimize(res.Stats, sink, wall)
	s = rec.begin("plan.Explain", id, d)
	_ = plan.Explain(res.Best)
	rec.end(s)
	if fp := res.Best.Fingerprint(); fp != exp.fp {
		return fmt.Errorf("direct plan %s, expected %s", fp, exp.fp)
	}
	if b.execute {
		b.execMu.Lock()
		rt := exec.NewRuntime(b.clusters[o.tmpl], cat)
		rt.Obs = sink
		rt.CollectOpStats = true
		s = rec.begin("exec.Run", id, d)
		er, err := rt.Run(res.Best)
		rec.end(s)
		b.execMu.Unlock()
		if err != nil {
			return fmt.Errorf("direct execute: %w", err)
		}
		out.tally.addExec(er)
		if err := sameRows(workload.RenderRows(er.Schema, er.Rows, g.SelectCols(cat)), exp.rows); err != nil {
			return fmt.Errorf("direct execute: %w", err)
		}
	}
	return nil
}

// setTracedMetrics reports the serve layer and every layer the replay
// reached, and writes the spans.
func (b *serveBench) setTracedMetrics(rep *report, outs []*clientOut) {
	var (
		t    layerTally
		recs []*recorder
	)
	for _, o := range outs {
		t.merge(&o.tally)
		recs = append(recs, o.rec)
	}
	setLayerMetrics(rep, &t, recs, 1)
	dur := durations(recs)
	rep.set("serve.overhead_ratio", ratio(median(dur["serve.request"]), median(dur["direct"])), "ratio")
	if b.execute {
		rep.Notes["exec.run_us"] = fmt.Sprintf("direct execution is %.0f%% of served time",
			100*ratio(sum(dur["exec.Run"]), sum(dur["serve.request"])))
	}
	ops := float64(countOps(outs))
	rep.set("serve.events_per_op", ratio(float64(t.events), ops), "count")
	rep.set("serve.response_bytes_per_op", ratio(float64(t.respBytes), ops), "bytes")
	if err := writeChromeTrace(b.cfg.traceOut, recs); err != nil {
		rep.fail("write trace: %v", err)
	} else {
		rep.TraceFile = b.cfg.traceOut
		rep.Notes["trace.overhead_ratio"] = traceNote(b.cfg.traceOut, recs)
	}
}

// scrape reads each daemon's /metrics, /coverage and /profile once, reports
// the serve, coverage and flight figures, and checks that every daemon
// profiled exactly the requests sent to it.
func (b *serveBench) scrape(rep *report, outs []*clientOut) error {
	var rejected, records, incidents, templates float64
	for i, h := range b.handlers {
		var sent int64
		for _, o := range outs {
			sent += o.served[i]
		}
		m, err := get(h, "/metrics")
		if err != nil {
			return err
		}
		vals := promValues(m, "serve_rejected_total", "flight_records_total", "flight_incidents_total")
		rejected += vals[0]
		records += vals[1]
		incidents += vals[2]

		cov, err := get(h, "/coverage")
		if err != nil {
			return err
		}
		var c struct {
			Templates []json.RawMessage `json:"templates"`
		}
		if err := json.Unmarshal(cov, &c); err != nil {
			return fmt.Errorf("/coverage: %w", err)
		}
		templates += float64(len(c.Templates))

		pr, err := get(h, "/profile")
		if err != nil {
			return err
		}
		var p struct {
			Requests int64 `json:"requests"`
		}
		if err := json.Unmarshal(pr, &p); err != nil {
			return fmt.Errorf("/profile: %w", err)
		}
		if p.Requests != sent {
			rep.fail("%s: /profile counts %d requests, %d were sent", b.tmpls[i].name, p.Requests, sent)
		}
	}
	rep.set("serve.rejected", rejected, "count")
	rep.set("flight.records", records, "count")
	rep.set("flight.incidents", incidents, "count")
	rep.set("coverage.templates", templates, "count")
	return nil
}

// get performs one GET through the handler.
func get(h http.Handler, path string) ([]byte, error) {
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest(http.MethodGet, path, nil))
	if rr.Code != http.StatusOK {
		return nil, fmt.Errorf("GET %s: status %d", path, rr.Code)
	}
	return rr.Body.Bytes(), nil
}

// promValues reads unlabelled sample values from Prometheus text, 0 for a
// name that is absent.
func promValues(text []byte, names ...string) []float64 {
	out := make([]float64, len(names))
	sc := bufio.NewScanner(bytes.NewReader(text))
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		name, val, ok := strings.Cut(sc.Text(), " ")
		if !ok {
			continue
		}
		for i, n := range names {
			if name == n {
				if v, err := strconv.ParseFloat(strings.TrimSpace(val), 64); err == nil {
					out[i] = v
				}
			}
		}
	}
	return out
}

func countOps(outs []*clientOut) int64 {
	var n int64
	for _, o := range outs {
		n += o.attempted
	}
	return n
}

func completions(outs []*clientOut) []time.Duration {
	var done []time.Duration
	for _, o := range outs {
		done = append(done, o.done...)
	}
	return done
}

// latencies returns every op's latency in completion order.
func latencies(outs []*clientOut) []float64 {
	type sample struct {
		done time.Duration
		lat  float64
	}
	var all []sample
	for _, o := range outs {
		for i, l := range o.lat {
			all = append(all, sample{o.done[i], l})
		}
	}
	sort.Slice(all, func(i, j int) bool { return all[i].done < all[j].done })
	lat := make([]float64, len(all))
	for i, s := range all {
		lat[i] = s.lat
	}
	return lat
}

// tally folds attempted/failed counts and check failures of every leg into
// the report.
func (r *report) tally(outs []*clientOut) {
	var errs []string
	for _, o := range outs {
		r.attempted += o.attempted
		r.failed += o.failed
		errs = append(errs, o.errs...)
	}
	if len(errs) > 0 {
		r.fail("%d of %d ops failed: %s", r.failed, r.attempted, joinErrs(errs, 5))
	}
	r.ErrorRate = ratio(float64(r.failed), float64(r.attempted))
}
