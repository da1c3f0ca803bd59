package main

import (
	"fmt"
	"runtime"
	"time"

	"stars/internal/obs"
	"stars/internal/opt"
	"stars/internal/plan"
	"stars/internal/sqlparse"
	"stars/internal/star"
)

// enumBench drives the library path on wide joins: parse, then Optimize at
// Parallelism = GOMAXPROCS, one query at a time in a fixed rotation.
type enumBench struct {
	cfg         config
	parallelism int
	qs          []enumQuery
	// offset is the seed's starting position in the rotation.
	offset int
}

// enumOut is one leg's outcome.
type enumOut struct {
	lat       [][]float64 // per query of the rotation, ms
	rotations []float64   // seconds per whole rotation
	attempted int64
	failed    int64
	errs      []string
	rec       *recorder
	tally     layerTally
}

func runEnum(cfg config) (*report, error) {
	procs := runtime.GOMAXPROCS(0)
	if procs > runtime.NumCPU() {
		return nil, fmt.Errorf("GOMAXPROCS=%d exceeds NumCPU=%d: parallel enumeration would measure scheduling, not parallelism; refusing to report", procs, runtime.NumCPU())
	}
	e := &enumBench{cfg: cfg, parallelism: procs}
	rep := newReport(cfg, procs, 1)
	setup, err := timeSetup(enumSetupReps, func() error {
		e.qs = enumCatalogs()
		return nil
	})
	if err != nil {
		return nil, err
	}
	n := len(e.qs)
	e.offset = int(((cfg.seed % int64(n)) + int64(n)) % int64(n))
	if err := e.expectations(rep); err != nil {
		return nil, err
	}

	warm := e.loop(0, false) // one rotation
	before := sampleRuntime(true)
	out := e.loop(cfg.leg(), false)
	after := sampleRuntime(false)
	w := measureWindow(before, after, out.attempted)
	throughput := out.rate()
	outs := []*enumOut{warm, out}

	if !cfg.trace {
		rep.set("setup_s", setup, "s")
		rep.set("throughput_ops_s", throughput, "ops/s")
		rep.Notes["throughput_ops_s"] = fmt.Sprintf("rotation ÷ median rotation time; %d ops in %.1f s", w.ops, w.seconds)
		// Mixed widths have no common latency distribution, and a run
		// holds too few ops of one query for a tail with ten samples
		// beyond it; both latency fields report the rotation's mean of
		// per-query median latencies.
		var sum float64
		samples := 0
		for _, l := range out.lat {
			sum += median(l)
			samples += len(l)
		}
		lat := sum / float64(n)
		rep.set("latency_p50_ms", lat, "ms")
		rep.set("latency_p99_ms", lat, "ms")
		rep.Samples = samples
		rep.Notes["latency_p50_ms"] = fmt.Sprintf("mean of %d per-query medians over %d samples", n, samples)
		rep.Notes["latency_p99_ms"] = "no tail on enum-wide: same figure as latency_p50_ms"
		rep.set("allocs_per_op", w.allocsPerOp, "count")
		rep.set("bytes_per_op", w.bytesPerOp, "bytes")
		rep.set("heap_live_mb", liveHeapMB(), "MB")
		runtime.KeepAlive(e.qs) // the catalogs are the state a library caller keeps
	} else {
		rep.set("gc.cpu_share", w.gcCPUShare, "ratio")
		rep.set("gc.cycles_per_kop", w.gcPerKop, "count")
		traced := e.loop(cfg.leg(), true)
		outs = append(outs, traced)
		rep.set("trace.overhead_ratio", ratio(traced.rate(), throughput), "ratio")
		recs := []*recorder{traced.rec}
		setLayerMetrics(rep, &traced.tally, recs, e.parallelism)
		// The serve, coverage and flight layers are not on the library
		// path.
		for _, name := range []string{"serve.overhead_ratio", "serve.events_per_op", "serve.response_bytes_per_op",
			"serve.rejected", "coverage.templates", "flight.records", "flight.incidents"} {
			rep.set(name, 0, unitOf(name))
		}
		if err := writeChromeTrace(e.cfg.traceOut, recs); err != nil {
			rep.fail("write trace: %v", err)
		} else {
			rep.TraceFile = e.cfg.traceOut
			rep.Notes["trace.overhead_ratio"] = traceNote(e.cfg.traceOut, recs)
		}
	}
	for _, o := range outs {
		rep.attempted += o.attempted
		rep.failed += o.failed
		if len(o.errs) > 0 {
			rep.fail("%d ops failed: %s", o.failed, joinErrs(o.errs, 5))
		}
	}
	rep.ErrorRate = ratio(float64(rep.failed), float64(rep.attempted))
	return rep, nil
}

// unitOf gives the unit of a serve-layer metric reported as 0.
func unitOf(name string) string {
	switch name {
	case "serve.overhead_ratio":
		return "ratio"
	case "serve.response_bytes_per_op":
		return "bytes"
	default:
		return "count"
	}
}

// expectations optimizes every query once serially from its parsed SQL and
// checks the plan against the pinned fingerprint; the measured ops, at full
// parallelism, must then choose the same plan.
func (e *enumBench) expectations(rep *report) error {
	for _, q := range e.qs {
		g, err := sqlparse.Parse(q.sql, q.cat)
		if err != nil {
			return fmt.Errorf("%s: %w", q.name, err)
		}
		res, err := opt.New(q.cat, opt.Options{Parallelism: 1}).Optimize(g)
		if err != nil {
			return fmt.Errorf("%s: %w", q.name, err)
		}
		if fp := res.Best.Fingerprint(); fp != pinnedFingerprints[q.name] {
			rep.fail("%s: serial plan %s, pinned %s", q.name, fp, pinnedFingerprints[q.name])
		}
		res.Release()
	}
	return nil
}

// rate is the leg's throughput in ops/s, taken robustly as the rotation's
// op count over the median rotation time.
func (o *enumOut) rate() float64 {
	return ratio(float64(len(o.lat)), median(o.rotations))
}

// loop optimizes whole rotations until d has passed (d = 0: one rotation),
// so every query weighs the same in every leg.
func (e *enumBench) loop(d time.Duration, traced bool) *enumOut {
	out := &enumOut{lat: make([][]float64, len(e.qs))}
	start := time.Now()
	if traced {
		out.rec = newRecorder(start, 1)
	}
	var id int64
	for {
		rs := time.Now()
		for i := range e.qs {
			qi := (e.offset + i) % len(e.qs)
			if err := e.do(qi, out, id); err != nil {
				out.failed++
				if len(out.errs) < 5 {
					out.errs = append(out.errs, fmt.Sprintf("%s: %v", e.qs[qi].name, err))
				}
			}
			id++
		}
		out.rotations = append(out.rotations, time.Since(rs).Seconds())
		if time.Since(start) >= d {
			return out
		}
	}
}

// do parses and optimizes one query and checks its plan. Traced legs put
// the self-profiler on the optimizer's sink and add DefaultRules and
// Explain probes.
func (e *enumBench) do(qi int, out *enumOut, id int64) error {
	q := e.qs[qi]
	rec := out.rec
	out.attempted++
	root := rec.begin("op", id, -1)
	defer rec.end(root)
	if rec != nil {
		s := rec.begin("star.DefaultRules", id, root)
		star.DefaultRules()
		rec.end(s)
	}
	t0 := time.Now()
	s := rec.begin("sqlparse.Parse", id, root)
	g, err := sqlparse.Parse(q.sql, q.cat)
	rec.end(s)
	if err != nil {
		return err
	}
	o := opt.Options{Parallelism: e.parallelism}
	var sink *obs.Sink
	if rec != nil {
		sink = newProfSink()
		o.Obs = sink
	}
	s = rec.begin("opt.Optimize", id, root)
	ts := time.Now()
	res, err := opt.New(q.cat, o).Optimize(g)
	wall := time.Since(ts)
	rec.end(s)
	if err != nil {
		return err
	}
	defer res.Release()
	out.lat[qi] = append(out.lat[qi], float64(time.Since(t0))/float64(time.Millisecond))
	if rec != nil {
		out.tally.addOptimize(res.Stats, sink, wall)
		s = rec.begin("plan.Explain", id, root)
		_ = plan.Explain(res.Best)
		rec.end(s)
	}
	if fp := res.Best.Fingerprint(); fp != pinnedFingerprints[q.name] {
		return fmt.Errorf("plan %s, pinned %s", fp, pinnedFingerprints[q.name])
	}
	return nil
}
