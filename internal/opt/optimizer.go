// Package opt is the optimizer driver: it builds plans bottom-up exactly as
// Section 2.3 describes — first referencing the AccessRoot STAR to build
// plans for individual tables, then repeatedly referencing the JoinRoot STAR
// to join plans generated earlier, until all tables have been joined —
// keeping every Set of Alternative Plans in the Glue plan table, and finally
// imposing the query's root requirements (output order, query site) through
// Glue.
package opt

import (
	"context"
	"fmt"
	"runtime/pprof"
	"sync"
	"time"

	"stars/internal/catalog"
	"stars/internal/cost"
	"stars/internal/expr"
	"stars/internal/glue"
	"stars/internal/obs"
	"stars/internal/plan"
	"stars/internal/query"
	"stars/internal/star"
)

// Options tune the optimizer. The zero value is the System-R-ish default:
// join-predicate-connected pairs only, composite inners allowed, Glue
// returning cheapest plans, dominance pruning on.
type Options struct {
	// CartesianProducts admits joinable pairs with no connecting join
	// predicate (Section 2.3's compile-time parameter). Pairs with an
	// eligible join predicate are always preferred; Cartesian pairs are
	// added, not substituted.
	CartesianProducts bool
	// NoCompositeInners restricts enumeration to pairs where at least one
	// side is a single table (left-deep shapes); the default permits
	// composite inners like (A*B)*(C*D).
	NoCompositeInners bool
	// KeepAllGlue makes every Glue reference return all satisfying plans
	// rather than the cheapest (ablation).
	KeepAllGlue bool
	// DisablePruning turns off dominance pruning in the plan table
	// (ablation).
	DisablePruning bool
	// Weights override the cost weights; zero value uses DefaultWeights.
	Weights cost.Weights
	// Rules overrides the repertoire; nil loads the built-in rule set.
	Rules *star.RuleSet
	// Obs, when non-nil, receives the optimization's event stream (rule
	// spans, Glue and plan-table events, phase spans) and metrics. When
	// nil, obs.DefaultSink() is consulted; when that is nil too, observability
	// is off and costs only nil checks.
	Obs *obs.Sink
	// Trace captures the rule-firing log (Result.Trace). It is sugar for
	// injecting a private sink via Obs: the log is reconstructed from the
	// event stream.
	Trace bool
	// JoinRoot overrides the root join STAR's name; default "JoinRoot".
	JoinRoot string
	// Prepare, when non-nil, customizes the engine after construction
	// (extra builders/helpers for DBC extensions).
	Prepare func(*star.Engine)
	// Parallelism is the number of worker goroutines the bottom-up join
	// enumeration fans each subset-size rank out to. 1 runs the rank
	// single-threaded; 0 uses the process default (SetDefaultParallelism,
	// falling back to GOMAXPROCS). Whatever the value, results are
	// deterministic: every parallelism level chooses plans with identical
	// fingerprints, retains an identical plan table, and reports identical
	// counters. See docs/PERFORMANCE.md.
	Parallelism int
}

// Stats aggregates optimization-effort counters for one query.
type Stats struct {
	// Star counts the rule engine's work.
	Star star.Stats
	// Glue counts the Glue mechanism's work.
	Glue glue.Stats
	// Subsets is the number of table subsets enumerated.
	Subsets int64
	// Pairs is the number of joinable partitions for which JoinRoot was
	// referenced.
	Pairs int64
	// PlansRetained is the plan-table population after optimization.
	PlansRetained int64
	// PlansInserted and PlansPruned report plan-table churn.
	PlansInserted int64
	PlansPruned   int64
	// Elapsed is wall-clock optimization time.
	Elapsed time.Duration
}

// Result is one optimization's outcome.
type Result struct {
	// Best is the chosen plan, priced, with root requirements satisfied.
	Best *plan.Node
	// Stats aggregates effort counters.
	Stats Stats
	// Trace is the rule-firing log when Options.Trace was set
	// (reconstructed from the observability event stream).
	Trace []star.TraceEntry
	// Obs is the sink the optimization reported into (nil when
	// observability was off) — callers export it (NDJSON, Chrome trace,
	// Prometheus text) or inspect its metrics.
	Obs *obs.Sink
	// Table is the final plan table (alternatives for every subset).
	Table *glue.PlanTable
	// Engine is the rule engine used (for inspecting registries in
	// tests and tools).
	Engine *star.Engine
	// Coverage is the run's coverage summary, counted in typed counters
	// during the run; nil when observability was off.
	Coverage *Coverage

	// arena owns the storage of every plan node this optimization built;
	// Release recycles it.
	arena *plan.Arena
}

// arenaPool recycles plan arenas across optimizations so a long-running
// server reuses slabs instead of growing the heap per query.
var arenaPool = sync.Pool{New: func() any { return plan.NewArena() }}

// arenaPoison, when set (lifetime tests only), turns on poison-on-reset for
// every arena an optimization checks out, so a plan pointer that escapes
// Release without being detached reads a recognizably dead node instead of
// silently stale data.
var arenaPoison bool

// Release recycles the result's plan storage for a later optimization. After
// Release only Best remains usable — it is detached (deep-copied to the
// heap) first — while Table, Engine, and every other plan pointer obtained
// from this result become invalid. Callers that never Release simply let the
// GC reclaim the arena with the result; callers on a hot path (the serve
// loop, benchmarks) Release to make plan storage O(live queries) instead of
// O(queries ever run).
func (r *Result) Release() {
	a := r.arena
	if a == nil {
		return
	}
	r.arena = nil
	r.Best = plan.Detach(r.Best)
	r.Table = nil
	r.Engine = nil
	a.Reset()
	arenaPool.Put(a)
}

// Optimizer optimizes queries against one catalog.
type Optimizer struct {
	Cat  *catalog.Catalog
	Opts Options
}

// New builds an optimizer.
func New(cat *catalog.Catalog, opts Options) *Optimizer {
	return &Optimizer{Cat: cat, Opts: opts}
}

// Optimize builds all plans for the query bottom-up and returns the cheapest
// plan satisfying the root requirements.
func (o *Optimizer) Optimize(g *query.Graph) (*Result, error) {
	start := time.Now()
	// Resolve the sink first so the prepare phase (validation, environment
	// and engine construction) is attributed when a profiler rides on it: an
	// explicit Options.Obs wins; Options.Trace without one gets a private
	// sink so the trace can be reconstructed; otherwise the process-wide
	// obs.DefaultSink (nil when observability is off).
	sink := o.Opts.Obs
	if sink == nil && o.Opts.Trace {
		sink = obs.NewSink()
	}
	if sink == nil {
		sink = obs.DefaultSink()
	}
	labels := sink.ProfLabels()
	if labels {
		defer pprof.SetGoroutineLabels(context.Background())
	}

	var prepSp obs.Span
	if sink.Enabled() {
		prepSp = sink.StartSpan(obs.EvPhase, "prepare", "", 0)
	}
	phaseLabels(nil, labels, "prepare")
	if err := g.Validate(o.Cat); err != nil {
		prepSp.End(0)
		return nil, err
	}

	w := o.Opts.Weights
	if w == (cost.Weights{}) {
		w = cost.DefaultWeights
	}
	env := cost.NewEnv(o.Cat, w)
	env.Obs = sink
	env.Arena = arenaPool.Get().(*plan.Arena)
	if arenaPoison {
		env.Arena.SetPoison(true)
	}
	for _, q := range g.Quants {
		env.BindQuantifier(q.Name, q.Table)
	}

	rules := o.Opts.Rules
	if rules == nil {
		rules = star.DefaultRules()
	}

	// Memoize the needed-columns resolution once per query: the engine,
	// Glue, and every enumeration worker consult it repeatedly, and the
	// underlying graph walk allocates. The map is read-only once built, so
	// forked worker engines share it freely.
	needed := make(map[string][]expr.ColID, len(g.Quants))
	for _, q := range g.Quants {
		needed[q.Name] = g.NeededCols(o.Cat, q.Name)
	}

	en := star.NewEngine(rules, env)
	en.QueryTables = g.QuantNames()
	en.NeededCols = func(q string) []expr.ColID { return needed[q] }
	en.Obs = sink
	if o.Opts.Prepare != nil {
		o.Opts.Prepare(en)
	}
	if err := en.Validate(); err != nil {
		prepSp.End(0)
		return nil, err
	}
	if sink.Enabled() {
		en.CountAlts()
	}

	table := glue.NewPlanTable()
	table.PruneDisabled = o.Opts.DisablePruning
	table.Obs = sink
	gl := &glue.Gluer{Engine: en, Graph: g, Table: table, KeepAll: o.Opts.KeepAllGlue}
	en.Glue = gl.Glue
	en.PlanSites = gl.PlanSites

	res := &Result{Table: table, Engine: en, Obs: sink, arena: env.Arena}
	prepSp.End(0)

	// Phase 1: access plans for every quantifier (Section 2.3).
	var accessSp obs.Span
	if sink.Enabled() {
		accessSp = sink.StartSpan(obs.EvPhase, "access", "", 0)
	}
	phaseLabels(en, labels, "access")
	for _, q := range g.Quants {
		ts := expr.NewTableSet(q.Name)
		preds := g.BasePreds(q.Name)
		sap, err := en.EvalRule(glue.AccessRootRule, []star.Value{
			star.StreamValue(ts),
			star.ColsValue(needed[q.Name]),
			star.PredsValue(preds),
		})
		if err != nil {
			return nil, fmt.Errorf("opt: access plans for %s: %w", q.Name, err)
		}
		if len(sap) == 0 {
			return nil, fmt.Errorf("opt: no access plans for %s", q.Name)
		}
		table.Insert(ts, preds, sap)
	}
	accessSp.End(int64(table.Size()))

	// Phase 2: bottom-up join enumeration over quantifier subsets,
	// rank-parallel (see parallel.go).
	if err := o.enumerate(g, en, gl, table, res); err != nil {
		return nil, err
	}

	// Phase 3: root requirements — deliver at the query site in the
	// requested order.
	var rootSp obs.Span
	if sink.Enabled() {
		rootSp = sink.StartSpan(obs.EvPhase, "root", "", 0)
	}
	phaseLabels(en, labels, "root")
	rootReq := plan.Reqd{Order: g.OrderBy}
	site := o.Cat.QuerySite
	rootReq.Site = &site
	best, err := gl.Glue(&star.GlueRequest{Tables: g.TableSet(), Req: rootReq})
	if err != nil {
		return nil, fmt.Errorf("opt: root requirements: %w", err)
	}
	res.Best = glue.CheapestOf(best)
	rootSp.End(int64(len(best)))

	res.Stats.Star = en.Stats
	res.Stats.Glue = gl.Stats
	res.Stats.PlansRetained = int64(table.Size())
	res.Stats.PlansInserted = table.Inserted
	res.Stats.PlansPruned = table.Pruned
	res.Stats.Elapsed = time.Since(start)
	if sink.Enabled() {
		finSp := sink.StartSpan(obs.EvPhase, "finalize", "", 0)
		phaseLabels(en, labels, "finalize")
		publishMetrics(sink.Registry(), res)
		res.Coverage = collectCoverage(rules, en, gl, res)
		publishCoverage(sink, res.Coverage)
		finSp.End(0)
		// Phase/rank tallies flush after the finalize span closes so the
		// exported deltas include it; repeat publishes stay exact.
		if p := sink.Prof(); p != nil {
			p.PublishMetrics(sink.Registry())
		}
		if sink.KeepsEvents() {
			res.Trace = star.TraceFromEvents(sink.Events())
		}
	}
	return res, nil
}

// phaseLabels pins the driver goroutine's pprof label to the current
// optimizer phase and hands the labeled context to the engine so EvalRule
// can compose star= onto it. No-op unless the attached profiler asked for
// labels.
func phaseLabels(en *star.Engine, on bool, phase string) {
	if !on {
		return
	}
	ctx := pprof.WithLabels(context.Background(), pprof.Labels("phase", phase))
	pprof.SetGoroutineLabels(ctx)
	if en != nil {
		en.LabelCtx = ctx
	}
}

// publishMetrics folds one optimization's counters into the sink's registry
// so long-running processes (starbench -metrics) accumulate across queries.
func publishMetrics(reg *obs.Registry, res *Result) {
	st := res.Stats
	reg.Counter("star_rule_refs_total").Add(st.Star.RuleRefs)
	reg.Counter("star_alts_considered_total").Add(st.Star.AltsConsidered)
	reg.Counter("star_alts_fired_total").Add(st.Star.AltsFired)
	reg.Counter("star_alts_rejected_total").Add(st.Star.AltsRejected)
	reg.Counter("star_plans_built_total").Add(st.Star.PlansBuilt)
	reg.Counter("star_plans_rejected_total").Add(st.Star.PlansRejected)
	reg.Counter("glue_calls_total").Add(st.Glue.Calls)
	reg.Counter("glue_hits_total").Add(st.Glue.Hits)
	reg.Counter("glue_misses_total").Add(st.Glue.Misses)
	reg.Counter("glue_veneers_total").Add(st.Glue.Veneers)
	reg.Counter("plantable_inserted_total").Add(st.PlansInserted)
	reg.Counter("plantable_pruned_total").Add(st.PlansPruned)
	reg.Counter("opt_subsets_total").Add(st.Subsets)
	reg.Counter("opt_pairs_total").Add(st.Pairs)
	reg.Gauge("plantable_plans").Set(st.PlansRetained)
	reg.Histogram("opt_elapsed_seconds").Observe(st.Elapsed)
}

// joinRootName returns the configured root join STAR.
func (o *Optimizer) joinRootName() string {
	if o.Opts.JoinRoot != "" {
		return o.Opts.JoinRoot
	}
	return "JoinRoot"
}
