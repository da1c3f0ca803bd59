package opt

import (
	"reflect"
	"sync"
	"testing"

	"stars/internal/obs"
	"stars/internal/star"
	"stars/internal/workload"
)

func TestObsSinkCapturesEventsAndMetrics(t *testing.T) {
	sink := obs.NewSink()
	res, err := New(workload.EmpDept(), Options{Obs: sink}).Optimize(workload.Figure1Query())
	if err != nil {
		t.Fatal(err)
	}
	if res.Obs != sink {
		t.Fatal("Result.Obs must be the injected sink")
	}
	// Every layer must have reported: rules, Glue, plan table, driver.
	seen := map[string]bool{}
	for _, e := range sink.Events() {
		seen[e.Name] = true
	}
	for _, want := range []string{
		obs.EvRule, obs.EvAltFired, obs.EvGlue, obs.EvVeneer,
		obs.EvPlanInsert, obs.EvPhase, obs.EvPair,
	} {
		if !seen[want] {
			t.Errorf("event stream missing %s (saw %v)", want, seen)
		}
	}
	// Metrics must agree with the stats counters.
	reg := sink.Registry()
	if got := reg.Counter("star_rule_refs_total").Value(); got != res.Stats.Star.RuleRefs {
		t.Errorf("star_rule_refs_total = %d, stats say %d", got, res.Stats.Star.RuleRefs)
	}
	if got := reg.Counter("glue_calls_total").Value(); got != res.Stats.Glue.Calls {
		t.Errorf("glue_calls_total = %d, stats say %d", got, res.Stats.Glue.Calls)
	}
	if got := reg.Counter("opt_pairs_total").Value(); got != res.Stats.Pairs {
		t.Errorf("opt_pairs_total = %d, stats say %d", got, res.Stats.Pairs)
	}
	if got := reg.Gauge("plantable_plans").Value(); got != res.Stats.PlansRetained {
		t.Errorf("plantable_plans = %d, stats say %d", got, res.Stats.PlansRetained)
	}
	if reg.Histogram("opt_elapsed_seconds").Count() != 1 {
		t.Error("opt_elapsed_seconds not observed")
	}
	// An injected sink also yields the reconstructed trace.
	if len(res.Trace) == 0 {
		t.Fatal("trace not reconstructed from the event stream")
	}
}

// TestConcurrentOptimizeSharedSink exercises the sink's concurrency safety:
// several optimizations report into one sink at once (run with -race).
func TestConcurrentOptimizeSharedSink(t *testing.T) {
	sink := obs.NewMetricsSink()
	const workers = 8
	var (
		wg      sync.WaitGroup
		mu      sync.Mutex
		refs    int64
		firstEr error
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := New(workload.EmpDept(), Options{Obs: sink}).Optimize(workload.Figure1Query())
			mu.Lock()
			defer mu.Unlock()
			if err != nil {
				if firstEr == nil {
					firstEr = err
				}
				return
			}
			refs += res.Stats.Star.RuleRefs
		}()
	}
	wg.Wait()
	if firstEr != nil {
		t.Fatal(firstEr)
	}
	if got := sink.Registry().Counter("star_rule_refs_total").Value(); got != refs {
		t.Errorf("aggregated star_rule_refs_total = %d, want %d", got, refs)
	}
	if sink.Registry().Histogram("opt_elapsed_seconds").Count() != workers {
		t.Errorf("opt_elapsed_seconds count = %d, want %d",
			sink.Registry().Histogram("opt_elapsed_seconds").Count(), workers)
	}
}

// TestDefaultSinkFallback: with no Options.Obs, optimizations report into
// obs.DefaultSink() when one is installed.
func TestDefaultSinkFallback(t *testing.T) {
	old := obs.DefaultSink()
	obs.SetDefault(obs.NewMetricsSink())
	defer obs.SetDefault(old)
	res, err := New(workload.EmpDept(), Options{}).Optimize(workload.Figure1Query())
	if err != nil {
		t.Fatal(err)
	}
	if got := obs.DefaultSink().Registry().Counter("star_rule_refs_total").Value(); got != res.Stats.Star.RuleRefs {
		t.Errorf("default sink counter = %d, want %d", got, res.Stats.Star.RuleRefs)
	}
}

// TestTraceMatchesEngineCounters: the reconstructed trace's firing/rejection
// entries agree with the engine's counters.
func TestTraceMatchesEngineCounters(t *testing.T) {
	res, err := New(workload.EmpDept(), Options{Trace: true}).Optimize(workload.Figure1Query())
	if err != nil {
		t.Fatal(err)
	}
	var fired, rejected int64
	for _, e := range res.Trace {
		switch {
		case e.Rejected:
			rejected++
		case e.Alt > 0:
			fired++
		}
	}
	if fired != res.Stats.Star.AltsFired {
		t.Errorf("trace shows %d firings, stats say %d", fired, res.Stats.Star.AltsFired)
	}
	if rejected != res.Stats.Star.AltsRejected {
		t.Errorf("trace shows %d rejections, stats say %d", rejected, res.Stats.Star.AltsRejected)
	}
	_ = star.FormatTrace(res.Trace)
}

// TestMetricsSinkCountsLikeEventSink pins the event count of a metrics-only
// sink to an event-keeping one's: forked workers' events and the coverage
// summary events are counted even though neither sink shape renders them
// the same way. The served stats.events figure relies on it.
func TestMetricsSinkCountsLikeEventSink(t *testing.T) {
	for _, entry := range workload.Corpus() {
		if entry.Name != "figure1" && entry.Name != "star4" {
			continue
		}
		for _, par := range []int{1, 4} {
			keep, drop := obs.NewSink(), obs.NewMetricsSink()
			kres, err := New(entry.Cat, Options{Obs: keep, Parallelism: par}).Optimize(entry.Query)
			if err != nil {
				t.Fatal(err)
			}
			dres, err := New(entry.Cat, Options{Obs: drop, Parallelism: par}).Optimize(entry.Query)
			if err != nil {
				t.Fatal(err)
			}
			if k, d := keep.Len(), drop.Len(); k != d || k != int64(len(keep.Events())) {
				t.Errorf("%s P%d: event-keeping Len %d (log %d), metrics-only Len %d",
					entry.Name, par, k, len(keep.Events()), d)
			}
			if len(drop.Events()) != 0 {
				t.Errorf("%s P%d: metrics-only sink kept %d events", entry.Name, par, len(drop.Events()))
			}
			if !reflect.DeepEqual(kres.Coverage, dres.Coverage) {
				t.Errorf("%s P%d: coverage depends on the sink shape", entry.Name, par)
			}
		}
	}
}
