package main

import (
	"strings"
	"time"

	"stars/internal/exec"
	"stars/internal/obs"
	"stars/internal/opt"
	"stars/internal/prof"
)

// layerTally sums one client's per-op layer counters over the traced leg.
type layerTally struct {
	ops        int64
	st         opt.Stats
	optimizeNS int64
	prof       prof.Profile
	// executed ops and their actuals
	execOps                      int64
	execPages, execRows, execCPU int64
	// served ops: the response's stats.events and body size
	events, respBytes int64
}

// newProfSink is the direct replay's sink: metrics only (no event log) with
// the optimizer's own self-profiler attached.
func newProfSink() *obs.Sink {
	s := obs.NewMetricsSink()
	s.EnableProf(obs.ProfOptions{})
	return s
}

// addOptimize folds one direct optimization.
func (t *layerTally) addOptimize(st opt.Stats, sink *obs.Sink, wall time.Duration) {
	t.ops++
	t.addStats(st)
	t.optimizeNS += wall.Nanoseconds()
	t.prof.Merge(prof.FromSink(sink))
}

func (t *layerTally) addStats(st opt.Stats) {
	t.st.Star.Add(st.Star)
	t.st.Glue.Add(st.Glue)
	t.st.Subsets += st.Subsets
	t.st.Pairs += st.Pairs
	t.st.PlansRetained += st.PlansRetained
	t.st.PlansInserted += st.PlansInserted
	t.st.PlansPruned += st.PlansPruned
}

// addExec folds one direct execution.
func (t *layerTally) addExec(er *exec.Result) {
	t.execOps++
	t.execPages += er.Stats.IO.TotalPages()
	t.execRows += er.Stats.RowsOut
	t.execCPU += er.Stats.CPUOps
}

// merge folds another client's tally.
func (t *layerTally) merge(o *layerTally) {
	t.ops += o.ops
	t.addStats(o.st)
	t.optimizeNS += o.optimizeNS
	t.prof.Merge(&o.prof)
	t.execOps += o.execOps
	t.execPages += o.execPages
	t.execRows += o.execRows
	t.execCPU += o.execCPU
	t.events += o.events
	t.respBytes += o.respBytes
}

// spanMetrics maps the benchmark's span names to the per-layer time
// metrics, reported as the mean self time per call so that layers add up to
// the op they were called from.
var spanMetrics = []struct{ span, metric string }{
	{"sqlparse.Parse", "sqlparse.parse_us"},
	{"star.DefaultRules", "star.rules_load_us"},
	{"opt.Optimize", "opt.optimize_us"},
	{"plan.Explain", "plan.explain_us"},
	{"exec.Run", "exec.run_us"},
}

// setLayerMetrics reports the optimizer, Glue, cost, plan and exec layers
// from the traced leg. Layers a workload does not reach read 0.
func setLayerMetrics(r *report, t *layerTally, recs []*recorder, parallelism int) {
	self := selfTimes(recs)
	for _, m := range spanMetrics {
		r.set(m.metric, mean(self[m.span]), "us")
	}
	ops := float64(t.ops)
	st := t.st
	r.set("star.rule_refs_per_op", ratio(float64(st.Star.RuleRefs), ops), "count")
	r.set("star.alt_fire_ratio", ratio(float64(st.Star.AltsFired), float64(st.Star.AltsConsidered)), "ratio")
	r.set("opt.pairs_per_op", ratio(float64(st.Pairs), ops), "count")
	r.set("opt.plans_built_per_op", ratio(float64(st.Star.PlansBuilt), ops), "count")
	r.set("opt.plans_retained_per_op", ratio(float64(st.PlansRetained), ops), "count")
	r.set("opt.prune_rate", ratio(float64(st.PlansPruned), float64(st.PlansInserted+st.PlansPruned)), "ratio")
	r.set("glue.calls_per_op", ratio(float64(st.Glue.Calls), ops), "count")
	r.set("glue.hit_ratio", ratio(float64(st.Glue.Hits), float64(st.Glue.Calls)), "ratio")
	r.set("glue.veneers_per_op", ratio(float64(st.Glue.Veneers), ops), "count")

	// Phase self times partition each optimization's wall clock; the four
	// reported phases leave out only "prepare" (and "parse", which the
	// replay times as its own span).
	wall := float64(t.optimizeNS)
	phase := map[string]float64{}
	for _, p := range t.prof.Phases {
		name := p.Phase
		if strings.HasPrefix(name, "join") {
			name = "join"
		}
		phase[name] += float64(p.SelfNS)
	}
	for _, name := range []string{"access", "join", "root", "finalize"} {
		r.set("opt.phase_share."+name, ratio(phase[name], wall), "ratio")
	}
	// Activities are summed over workers, so their share is of the
	// worker-time the optimizations had: wall × parallelism.
	act := map[string]float64{}
	for _, a := range t.prof.Activities {
		act[a.Name] = float64(a.NS)
	}
	workerNS := wall * float64(parallelism)
	r.set("cost.price_share", ratio(act[obs.ActCost.String()], workerNS), "ratio")
	r.set("glue.plantable_offer_share", ratio(act[obs.ActOffer.String()], workerNS), "ratio")
	r.set("glue.plantable_absorb_share", ratio(act[obs.ActAbsorb.String()], workerNS), "ratio")
	var idle, capacity, busyMax, busyMean float64
	for _, rk := range t.prof.Ranks {
		idle += float64(rk.IdleNS)
		capacity += float64(rk.Workers) * float64(rk.ExecNS)
		busyMax += float64(rk.BusyMaxNS)
		if rk.Workers > 0 {
			busyMean += float64(rk.BusyTotalNS) / float64(rk.Workers)
		}
	}
	r.set("opt.rank_idle_share", ratio(idle, capacity), "ratio")
	r.set("opt.rank_imbalance", ratio(busyMax, busyMean), "ratio")

	eops := float64(t.execOps)
	r.set("exec.pages_per_op", ratio(float64(t.execPages), eops), "count")
	r.set("exec.rows_out_per_op", ratio(float64(t.execRows), eops), "count")
	r.set("exec.cpu_ops_per_op", ratio(float64(t.execCPU), eops), "count")
}
