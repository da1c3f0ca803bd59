// Command perfbench is the repository benchmark: it drives the optimizer's
// served and library paths with seeded workloads from one process, checks
// every output, and prints end-to-end metrics (or, with --trace 1, per-layer
// metrics from a traced rerun). See README.md for the metric catalog.
//
//	go run . --workload serve-mix --seed 1 --seconds 30 --trace 0
//
// The last line of standard output is the result object
// {"correct", "attempted", "failed", "metrics"}; the lines before it are a
// human-readable table and a JSON report line with the environment.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"time"
)

// Set-up is repeated per run and setup_s is the median: a few times for
// the daemons, which take a tenth of a second or more, and many times for
// enum-wide's catalogs, which take well under a millisecond.
const (
	serveSetupReps = 9
	enumSetupReps  = 25
)

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// env records where a result was measured.
type env struct {
	GoVersion   string `json:"go_version"`
	NumCPU      int    `json:"num_cpu"`
	GOMAXPROCS  int    `json:"gomaxprocs"`
	Parallelism int    `json:"parallelism"`
	Clients     int    `json:"clients"`
}

// report is the JSON line printed before the result: the environment, the
// sample counts behind the percentiles, and the error rate.
type report struct {
	Schema    string            `json:"schema"`
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Seconds   int               `json:"seconds"`
	Trace     bool              `json:"trace"`
	Env       env               `json:"env"`
	Samples   int               `json:"latency_samples"`
	ErrorRate float64           `json:"error_rate"`
	Errors    []string          `json:"errors,omitempty"`
	Notes     map[string]string `json:"notes,omitempty"`
	TraceFile string            `json:"trace_file,omitempty"`
	Metrics   map[string]metric `json:"metrics"`

	attempted, failed int64
}

// config is one invocation's settings.
type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	traceOut string
	clients  int
}

func main() {
	var (
		cfg   config
		trace int
	)
	flag.StringVar(&cfg.workload, "workload", "", "serve-mix | serve-exec | enum-wide")
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed: literals, request order and generated data")
	flag.IntVar(&cfg.seconds, "seconds", 30, "measured time: one window, or with --trace 1 an untraced and a traced leg of half each")
	flag.IntVar(&trace, "trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced rerun")
	flag.StringVar(&cfg.traceOut, "trace-out", "", "Chrome trace_event file for --trace 1 (default .bench_build/perfbench-<workload>-<seed>.trace.json)")
	flag.Parse()
	cfg.trace = trace == 1
	cfg.clients = runtime.NumCPU()
	if cfg.traceOut == "" {
		cfg.traceOut = fmt.Sprintf(".bench_build/perfbench-%s-%d.trace.json", cfg.workload, cfg.seed)
	}
	if cfg.seconds < 1 || (trace != 0 && trace != 1) {
		fatalf("--seconds must be ≥ 1 and --trace 0 or 1")
	}

	var (
		rep *report
		err error
	)
	switch cfg.workload {
	case "serve-mix":
		rep, err = runServe(cfg, serveMixTemplates(), false)
	case "serve-exec":
		rep, err = runServe(cfg, serveExecTemplates(), true)
	case "enum-wide":
		rep, err = runEnum(cfg)
	default:
		fatalf("unknown --workload %q (want serve-mix, serve-exec or enum-wide)", cfg.workload)
	}
	if err != nil {
		fatalf("%s: %v", cfg.workload, err)
	}
	emit(rep)
}

// leg is the length of one measured window: all of --seconds, or half of it
// for each of a traced invocation's two legs.
func (c config) leg() time.Duration {
	d := time.Duration(c.seconds) * time.Second
	if c.trace {
		d /= 2
	}
	return d
}

// fatalf reports a run that could not produce a result and exits non-zero
// without printing one.
func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(2)
}

// newReport stamps the environment.
func newReport(cfg config, parallelism, clients int) *report {
	return &report{
		Schema:   "stars/perfbench/v1",
		Workload: cfg.workload,
		Seed:     cfg.seed,
		Seconds:  cfg.seconds,
		Trace:    cfg.trace,
		Env: env{
			GoVersion:   runtime.Version(),
			NumCPU:      runtime.NumCPU(),
			GOMAXPROCS:  runtime.GOMAXPROCS(0),
			Parallelism: parallelism,
			Clients:     clients,
		},
		Notes:   map[string]string{},
		Metrics: map[string]metric{},
	}
}

func (r *report) set(name string, v float64, unit string) {
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

// fail records a failed check.
func (r *report) fail(format string, args ...any) {
	r.Errors = append(r.Errors, fmt.Sprintf(format, args...))
}

// emit prints the table, the report line and the result line, then exits 1
// when a check failed.
func emit(r *report) {
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Printf("# perfbench %s seed=%d seconds=%d trace=%v go=%s num_cpu=%d gomaxprocs=%d parallelism=%d clients=%d\n",
		r.Workload, r.Seed, r.Seconds, r.Trace, r.Env.GoVersion, r.Env.NumCPU, r.Env.GOMAXPROCS, r.Env.Parallelism, r.Env.Clients)
	for _, n := range names {
		m := r.Metrics[n]
		note := r.Notes[n]
		if note != "" {
			note = "  # " + note
		}
		fmt.Printf("%-32s %16.6g %-6s%s\n", n, m.Value, m.Unit, note)
	}
	fmt.Printf("%-32s %16.6g %-6s  # failed ÷ attempted\n", "error_rate", r.ErrorRate, "ratio")
	for _, e := range r.Errors {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", e)
	}
	line, err := json.Marshal(r)
	if err != nil {
		fatalf("encode report: %v", err)
	}
	fmt.Println(string(line))

	res := result{Correct: len(r.Errors) == 0, Metrics: r.Metrics}
	res.Attempted, res.Failed = r.attempted, r.failed
	line, err = json.Marshal(res)
	if err != nil {
		fatalf("encode result: %v", err)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// runtimeSample is a process-level snapshot bracketing a measured window.
type runtimeSample struct {
	at              time.Time
	mallocs, bytes  uint64
	gcCPU, totalCPU float64
	gcCycles        uint64
}

var runtimeMetrics = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/gc/cycles/total:gc-cycles",
}

// sampleRuntime snapshots the process counters; start marks the beginning of
// a window, which begins from a fresh collection.
func sampleRuntime(start bool) runtimeSample {
	if start {
		runtime.GC()
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := make([]metrics.Sample, len(runtimeMetrics))
	for i, n := range runtimeMetrics {
		s[i].Name = n
	}
	metrics.Read(s)
	return runtimeSample{
		at:       time.Now(),
		mallocs:  ms.Mallocs,
		bytes:    ms.TotalAlloc,
		gcCPU:    s[0].Value.Float64(),
		totalCPU: s[1].Value.Float64(),
		gcCycles: s[2].Value.Uint64(),
	}
}

// window is what a measured window cost the process.
type window struct {
	seconds                 float64
	ops                     int64
	allocsPerOp, bytesPerOp float64
	gcCPUShare, gcPerKop    float64
}

func measureWindow(before, after runtimeSample, ops int64) window {
	w := window{seconds: after.at.Sub(before.at).Seconds(), ops: ops}
	if ops > 0 {
		w.allocsPerOp = float64(after.mallocs-before.mallocs) / float64(ops)
		w.bytesPerOp = float64(after.bytes-before.bytes) / float64(ops)
		w.gcPerKop = float64(after.gcCycles-before.gcCycles) * 1000 / float64(ops)
	}
	w.gcCPUShare = ratio(after.gcCPU-before.gcCPU, after.totalCPU-before.totalCPU)
	return w
}

// liveHeapMB returns the live heap in MB after forced collections (two, so
// that sync.Pool victim caches are dropped as well).
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / 1e6
}

// timeSetup runs build reps times and returns the median seconds; the last
// build's state is what the run keeps.
func timeSetup(reps int, build func() error) (float64, error) {
	secs := make([]float64, 0, reps)
	for i := 0; i < reps; i++ {
		runtime.GC() // don't bill the previous build's garbage to this one
		t := time.Now()
		if err := build(); err != nil {
			return 0, err
		}
		secs = append(secs, time.Since(t).Seconds())
	}
	return median(secs), nil
}

// joinErrs summarizes errors for a one-line failure message.
func joinErrs(errs []string, max int) string {
	if len(errs) > max {
		return strings.Join(errs[:max], "; ") + fmt.Sprintf("; … %d more", len(errs)-max)
	}
	return strings.Join(errs, "; ")
}
