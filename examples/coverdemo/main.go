// Command coverdemo measures alternative-space coverage of the built-in
// STAR repertoire over the bundled workload corpus — the same aggregation
// `starburst cover` and the serve daemon's /coverage endpoint perform —
// and prints the coverage table plus the annotated rule-source view.
//
//	go run ./examples/coverdemo [-annotate]
//
// Every observed optimization returns one coverage tally per alternative
// (including the ones that never fired) on Result.Coverage; the accumulator
// folds the runs together, the static linter marks arms the analyzer can
// already prove dead, and the report separates "statically dead" from "statically clean
// but dynamically dead on this workload" — the gap a linter alone cannot
// see. See docs/COVERAGE.md.
package main

import (
	"flag"
	"fmt"
	"os"

	"stars"
)

func main() {
	annotate := flag.Bool("annotate", false, "also print the annotated rule-source view")
	flag.Parse()

	acc := stars.NewCoverageAccumulator()
	for _, entry := range stars.WorkloadCorpus() {
		res, err := stars.Optimize(entry.Cat, entry.Query, stars.Options{Obs: stars.NewMetricsSink()})
		if err != nil {
			fatal(fmt.Errorf("%s: %w", entry.Name, err))
		}
		acc.Add(res.Coverage)
		fmt.Printf("optimized %-13s cost %.0f  (%d alternatives tallied)\n",
			entry.Name, res.Best.Props.Cost.Total, len(res.Coverage.Alts))
	}

	rep := acc.Report(stars.DefaultRules())
	rep.MarkStaticallyDead(stars.StaticallyDeadAlts(stars.Lint(stars.EmpDeptCatalog(), stars.Options{})))

	fmt.Println()
	fmt.Print(rep.Format())

	if *annotate {
		fmt.Println()
		fmt.Print(rep.Annotate())
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "coverdemo:", err)
	os.Exit(1)
}
