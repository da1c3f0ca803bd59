// Command starbench regenerates the paper's figures and claims as measured
// tables — the experiment harness indexed in DESIGN.md and summarized in
// EXPERIMENTS.md.
//
// Usage:
//
//	starbench -list           list experiment ids and titles
//	starbench -e E5           run one experiment
//	starbench -e all          run every experiment (default)
//	starbench -e all -md      also emit a Markdown summary table
//	starbench -e all -metrics print Prometheus-style metrics aggregated
//	                          across every optimization/execution run
//	starbench -coverage       also print alternative-space utilization: how
//	                          much of the STAR repertoire the coverage
//	                          corpus exercises (deep report: starburst cover)
//	starbench -json out.json  also write machine-readable per-experiment
//	                          results (schema starbench/v1): verdicts, the
//	                          regenerated tables, wall-clock ns and heap
//	                          allocations, and per-experiment optimizer
//	                          counters (plans enumerated, prune rate, ...)
//	starbench -parallel N     run every optimization with a join-enumeration
//	                          fan-out of N workers (0 = GOMAXPROCS; results
//	                          are identical at every level)
//	starbench -enum-bench f   measure the enumeration workloads and write
//	                          the baseline (schema starbench/enumerate/v1);
//	                          also appends to the -history ledger
//	starbench -enum-check f   measure and gate against a committed baseline
//	                          (see enumbench.go for the gates)
//	starbench -profile        also report a per-workload self-profile of
//	                          the coverage corpus: phase wall-time and
//	                          allocation breakdowns (deep report:
//	                          starburst profile)
//	starbench -trend          gate the newest BENCH_history.jsonl entry
//	                          against the historical best (allocation
//	                          drift, plan-fingerprint changes); exits
//	                          nonzero on regression beyond -trend-threshold
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"stars"
	"stars/internal/experiments"
)

// jsonSchema tags the -json export; bump on incompatible changes.
const jsonSchema = "starbench/v1"

// jsonExperiment is one experiment's machine-readable result.
type jsonExperiment struct {
	ID        string     `json:"id"`
	Title     string     `json:"title"`
	Claim     string     `json:"claim,omitempty"`
	OK        bool       `json:"ok"`
	Summary   string     `json:"summary,omitempty"`
	ElapsedNS int64      `json:"elapsed_ns"`
	Allocs    uint64     `json:"allocs"`
	Headers   []string   `json:"headers,omitempty"`
	Rows      [][]string `json:"rows,omitempty"`
	Notes     []string   `json:"notes,omitempty"`
	// PlansEnumerated counts plans the rule engine built during the
	// experiment; PruneRate is plan-table prunes over inserts.
	PlansEnumerated int64   `json:"plans_enumerated"`
	PlansPruned     int64   `json:"plans_pruned"`
	PruneRate       float64 `json:"prune_rate"`
	// Metrics are the experiment's deltas of every optimizer/executor
	// counter (see DumpMetrics for the name catalog).
	Metrics map[string]int64 `json:"metrics,omitempty"`
	Error   string           `json:"error,omitempty"`
}

type jsonDoc struct {
	Schema string `json:"schema"`
	// Parallelism is the -parallel value the run used (0 = GOMAXPROCS);
	// GOMAXPROCS records the machine's core budget, for interpreting the
	// elapsed numbers.
	Parallelism int              `json:"parallelism"`
	GOMAXPROCS  int              `json:"gomaxprocs"`
	Experiments []jsonExperiment `json:"experiments"`
}

func main() {
	var (
		exp       = flag.String("e", "all", "experiment id to run, or 'all'")
		list      = flag.Bool("list", false, "list experiments and exit")
		markdown  = flag.Bool("md", false, "emit a Markdown summary table after the reports")
		metricsF  = flag.Bool("metrics", false, "print Prometheus text-format metrics aggregated over all runs")
		jsonOut   = flag.String("json", "", "write machine-readable per-experiment results (schema starbench/v1) to this path")
		parallel  = flag.Int("parallel", 1, "join-enumeration worker fan-out for every optimization (0 = GOMAXPROCS)")
		enumBench = flag.String("enum-bench", "", "measure the enumeration workloads and write the baseline to this path")
		enumCheck = flag.String("enum-check", "", "measure the enumeration workloads and gate against this baseline")
		enumIters = flag.Int("enum-iters", 3, "iterations per (workload, parallelism) pair for -enum-bench/-enum-check")
		coverageF = flag.Bool("coverage", false, "also report alternative-space utilization: run the coverage corpus and print how much of the repertoire the workload exercises")
		profileF  = flag.Bool("profile", false, "also report a per-workload self-profile of the coverage corpus: phase wall-time and allocation breakdowns")
		history   = flag.String("history", "BENCH_history.jsonl", "append-only perf-history ledger -enum-bench records into and -trend reads")
		trend     = flag.Bool("trend", false, "gate the newest history entry against the historical best (allocation drift, plan fingerprints) and exit nonzero on regression")
		trendTol  = flag.Float64("trend-threshold", 0.30, "relative allocation growth -trend tolerates over the historical best")
		memProf   = flag.String("memprofile", "", "optimize the star8 workload once serially and write its allocation profile to this path (render with go tool pprof -top)")
	)
	flag.Parse()

	// The process-default knob, rather than per-call Options plumbing,
	// carries -parallel to every optimization the experiments run.
	stars.SetDefaultParallelism(*parallel)
	if *trend {
		trendMain(*history, *trendTol)
		return
	}
	if *memProf != "" {
		memProfileMain(*memProf)
		return
	}
	if *enumBench != "" {
		enumBenchMain(*enumBench, *enumIters, *history)
		return
	}
	if *enumCheck != "" {
		enumCheckMain(*enumCheck, *enumIters)
		return
	}

	// A metrics-only sink (no event log) as the process default: every
	// optimization the experiments run reports into it without per-call
	// plumbing, and the unbounded event log stays off. -json brackets each
	// experiment with counter snapshots to attribute the totals.
	var sink *stars.Sink
	if *metricsF || *jsonOut != "" {
		sink = stars.NewMetricsSink()
		stars.SetDefaultSink(sink)
	}

	if *list {
		titles := experiments.Titles()
		for _, id := range experiments.IDs() {
			fmt.Printf("%-4s %s\n", id, titles[id])
		}
		return
	}

	ids := []string{*exp}
	if strings.EqualFold(*exp, "all") {
		ids = experiments.IDs()
	}

	var (
		reports []*experiments.Report
		results []jsonExperiment
		errs    []error
	)
	for _, id := range ids {
		before := sink.Registry().Counters()
		rep, err := experiments.Run(id)
		if err != nil {
			errs = append(errs, err)
			fmt.Fprintf(os.Stderr, "error: %v\n", err)
			results = append(results, jsonExperiment{ID: id, Error: err.Error()})
			continue
		}
		reports = append(reports, rep)
		if *jsonOut != "" {
			results = append(results, toJSON(rep, counterDelta(before, sink.Registry().Counters())))
		}
	}
	if len(errs) > 0 && strings.EqualFold(*exp, "all") {
		defer os.Exit(1)
	} else if len(errs) > 0 {
		os.Exit(1)
	}

	failed := 0
	for _, rep := range reports {
		fmt.Println(rep.Format())
		if !rep.OK {
			failed++
		}
	}
	if *markdown {
		fmt.Println("\n## Summary (paper vs. measured)")
		fmt.Println()
		fmt.Println("| Id | Artifact / claim | Verdict |")
		fmt.Println("|---|---|---|")
		for _, rep := range reports {
			verdict := "✅ matches"
			if !rep.OK {
				verdict = "❌ mismatch"
			}
			fmt.Printf("| %s | %s | %s — %s |\n", rep.ID, rep.Title, verdict, rep.Summary)
		}
	}
	if *coverageF {
		reportCoverage()
	}
	if *profileF {
		reportProfile(*parallel)
	}
	if *metricsF {
		fmt.Println("\n## Metrics (Prometheus text format)")
		fmt.Println()
		if err := sink.DumpMetrics(os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "error: %v\n", err)
		}
	}
	if *jsonOut != "" {
		if err := writeJSON(*jsonOut, results, *parallel); err != nil {
			fmt.Fprintf(os.Stderr, "error: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "wrote %d experiment result(s) to %s\n", len(results), *jsonOut)
	}
	if failed > 0 {
		fmt.Fprintf(os.Stderr, "%d experiment(s) did not match the paper's shape\n", failed)
		os.Exit(1)
	}
}

// reportCoverage runs the coverage workload corpus under the built-in
// repertoire and prints alternative-space utilization alongside the
// experiments' perf numbers: how much of the repertoire the representative
// workload exercises (the deep report is `starburst cover`). Each run gets
// a metrics-only sink of its own: coverage is counted whenever a sink is
// attached, and no event log is needed.
func reportCoverage() {
	acc := stars.NewCoverageAccumulator()
	for _, entry := range stars.WorkloadCorpus() {
		res, err := stars.Optimize(entry.Cat, entry.Query, stars.Options{Obs: stars.NewMetricsSink()})
		if err != nil {
			fmt.Fprintf(os.Stderr, "coverage: %s: %v\n", entry.Name, err)
			continue
		}
		acc.Add(res.Coverage)
	}
	rep := acc.Report(stars.DefaultRules())
	s := rep.Summary
	fmt.Println("\n## Alternative-space utilization (coverage corpus)")
	fmt.Println()
	fmt.Printf("%d/%d alternatives exercised (%.1f%%) across %d run(s); %d retained a plan, %d won\n",
		s.Exercised, s.Alternatives, s.CoveragePct, rep.Runs, s.Retained, s.Winning)
	if dead := rep.Dead(); len(dead) > 0 {
		fmt.Printf("never exercised: %s\n", strings.Join(dead, ", "))
	}
}

// reportProfile runs the coverage corpus with the self-profiler attached
// and prints each workload's phase breakdown plus the merged totals (the
// deep report is `starburst profile`).
func reportProfile(parallel int) {
	if parallel == 0 {
		parallel = runtime.GOMAXPROCS(0)
	}
	report := stars.NewProfileReport(runtime.GOMAXPROCS(0), parallel)
	for _, entry := range stars.WorkloadCorpus() {
		sink := stars.NewMetricsSink()
		stars.EnableProfiling(sink, stars.ProfileOptions{})
		a0, t0 := stars.HeapAllocs(), time.Now()
		if _, err := stars.Optimize(entry.Cat, entry.Query, stars.Options{Obs: sink, Parallelism: parallel}); err != nil {
			fmt.Fprintf(os.Stderr, "profile: %s: %v\n", entry.Name, err)
			continue
		}
		p := stars.ProfileOf(sink)
		p.ElapsedNS = time.Since(t0).Nanoseconds()
		p.Allocs = stars.HeapAllocs() - a0
		report.Add(entry.Name, p)
	}
	fmt.Println("\n## Self-profile (coverage corpus)")
	fmt.Println()
	fmt.Print(report.Format(8))
}

// toJSON converts a report plus its counter deltas into the wire form.
func toJSON(rep *experiments.Report, metrics map[string]int64) jsonExperiment {
	out := jsonExperiment{
		ID: rep.ID, Title: rep.Title, Claim: rep.Claim,
		OK: rep.OK, Summary: rep.Summary,
		ElapsedNS: rep.Elapsed.Nanoseconds(), Allocs: rep.Allocs,
		Headers: rep.Headers, Rows: rep.Rows, Notes: rep.Notes,
		PlansEnumerated: metrics["star_plans_built_total"],
		PlansPruned:     metrics["plantable_pruned_total"],
		Metrics:         metrics,
	}
	if ins := metrics["plantable_inserted_total"]; ins > 0 {
		out.PruneRate = float64(out.PlansPruned) / float64(ins)
	}
	return out
}

// counterDelta subtracts snapshot a from b, keeping nonzero deltas.
func counterDelta(a, b map[string]int64) map[string]int64 {
	out := map[string]int64{}
	for name, v := range b {
		if d := v - a[name]; d != 0 {
			out[name] = d
		}
	}
	return out
}

func writeJSON(path string, results []jsonExperiment, parallelism int) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	err = enc.Encode(jsonDoc{Schema: jsonSchema, Parallelism: parallelism,
		GOMAXPROCS: runtime.GOMAXPROCS(0), Experiments: results})
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
