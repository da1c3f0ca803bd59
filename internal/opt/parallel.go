// Rank-parallel bottom-up join enumeration.
//
// Section 2.3 builds plans strictly bottom-up: every plan for a subset of
// size k consumes only plan-table entries for smaller subsets, so the
// subsets within one size rank are independent work. enumerate exploits
// that: each rank's subsets become tasks fanned out to a worker pool, with
// a barrier between ranks so size-k workers only ever read committed
// size-<k entries.
//
// Determinism is the design constraint — a parallel run must choose plans
// with identical fingerprints, retain an identical plan table, and report
// identical counters to a serial run. Three mechanisms deliver it:
//
//  1. Isolation: each task works against its own overlay plan table
//     (glue.NewOverlay) over the frozen base, its own forked engine and
//     pricing environment, and its own child obs sink. A task's outcome
//     therefore depends only on the committed base — never on how sibling
//     tasks were scheduled.
//  2. Namespacing: forked engines derive temp/index names from the task's
//     subset mask ("_t<mask>.<seq>"), so generated names are a function of
//     the work item, not of scheduling order.
//  3. Ordered merge: at the rank barrier the driver absorbs every task —
//     events, metrics, stats, coverage tallies, temps, and overlay writes —
//     in ascending subset-mask order, the order a serial walk visits
//     subsets in.
//
// Parallelism: 1 runs the very same task/overlay/merge pipeline on the
// calling goroutine, which is what makes the equivalence checkable rather
// than aspirational (internal/opt/parallel_test.go asserts it).
package opt

import (
	"context"
	"fmt"
	"math/bits"
	"runtime"
	"runtime/pprof"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"stars/internal/expr"
	"stars/internal/glue"
	"stars/internal/obs"
	"stars/internal/plan"
	"stars/internal/query"
	"stars/internal/star"
)

// defaultParallelism is the process-wide fan-out used when
// Options.Parallelism is zero; zero here falls back to GOMAXPROCS.
var defaultParallelism atomic.Int32

// SetDefaultParallelism sets the process-wide enumeration fan-out used when
// Options.Parallelism is zero (n <= 0 restores the GOMAXPROCS default).
// Batch tools expose it as a -parallel flag; servers should prefer setting
// Options.Parallelism per request.
func SetDefaultParallelism(n int) {
	if n < 0 {
		n = 0
	}
	defaultParallelism.Store(int32(n))
}

// resolveParallelism maps an Options.Parallelism value to a worker count.
func resolveParallelism(n int) int {
	if n > 0 {
		return n
	}
	if d := defaultParallelism.Load(); d > 0 {
		return int(d)
	}
	return runtime.GOMAXPROCS(0)
}

// denseMaskLimit bounds the quantifier count for which the mask cache
// precomputes all 2^n subsets. Beyond it (where exhaustive enumeration is
// computationally out of reach anyway) translations are computed on demand.
const denseMaskLimit = 16

// maskCache interns the mask -> TableSet / canonical-key translation for
// one query. The old per-reference closure rebuilt a map[string]bool for
// every mask mention — twice per pair — which dominated the enumeration's
// allocation profile. The cache is built once, before the rank loop, and is
// read-only afterwards, so enumeration workers share it without locks.
type maskCache struct {
	n     int
	names []string
	sets  []expr.TableSet
	keys  []string
}

func newMaskCache(g *query.Graph) *maskCache {
	mc := &maskCache{n: len(g.Quants), names: g.QuantNames()}
	if mc.n > denseMaskLimit {
		return mc
	}
	full := uint32(1)<<uint(mc.n) - 1
	mc.sets = make([]expr.TableSet, full+1)
	mc.keys = make([]string, full+1)
	for mask := uint32(1); mask <= full; mask++ {
		ts := mc.build(mask)
		mc.sets[mask] = ts
		mc.keys[mask] = ts.Key()
	}
	return mc
}

// set returns the (shared, never-mutated) TableSet for mask.
func (mc *maskCache) set(mask uint32) expr.TableSet {
	if mc.sets != nil {
		return mc.sets[mask]
	}
	return mc.build(mask)
}

// key returns the canonical table-set key for mask.
func (mc *maskCache) key(mask uint32) string {
	if mc.keys != nil {
		return mc.keys[mask]
	}
	return mc.build(mask).Key()
}

func (mc *maskCache) build(mask uint32) expr.TableSet {
	names := make([]string, 0, bits.OnesCount32(mask))
	for i := 0; i < mc.n; i++ {
		if mask&(1<<uint(i)) != 0 {
			names = append(names, mc.names[i])
		}
	}
	return expr.NewTableSet(names...)
}

// subsetTask is one unit of rank-parallel work: all joinable partitions of
// one quantifier subset, evaluated against isolated state that the barrier
// later folds back in.
type subsetTask struct {
	mask  uint32
	pairs int64
	sink  *obs.Sink
	en    *star.Engine
	gl    *glue.Gluer
	table *glue.PlanTable
	err   error
}

// enumerate walks quantifier subsets by size, referencing JoinRoot for each
// joinable partition of each subset. Subsets are bitmasks over the
// quantifier list; quantifier counts beyond 30 are rejected (well past what
// dynamic-programming enumeration is for). Within each size rank the
// subsets run on Options.Parallelism workers; results merge at the rank
// barrier in ascending mask order.
func (o *Optimizer) enumerate(g *query.Graph, en *star.Engine, gl *glue.Gluer, table *glue.PlanTable, res *Result) error {
	n := len(g.Quants)
	if n > 30 {
		return fmt.Errorf("opt: %d quantifiers exceeds the enumeration limit", n)
	}
	if n == 1 {
		return nil
	}
	mc := newMaskCache(g)
	par := resolveParallelism(o.Opts.Parallelism)
	sink := res.Obs

	// plan.Node memoizes Key/Fingerprint lazily — a write. Populate the
	// memos of the committed access plans while the table is still
	// single-threaded; Absorb keeps the invariant for later ranks.
	table.MemoizeIdentities()

	profiled := sink.ProfEnabled()
	labels := sink.ProfLabels()
	full := uint32(1)<<uint(n) - 1
	for size := 2; size <= n; size++ {
		var sizeSp obs.Span
		if sink.Enabled() {
			sizeSp = sink.StartSpan(obs.EvPhase, fmt.Sprintf("join-%d", size), "", 0)
		}
		phaseLabels(en, labels, fmt.Sprintf("join-%d", size))
		sizePairs := res.Stats.Pairs
		var rankStart time.Time
		if profiled {
			rankStart = time.Now()
		}

		tasks := make([]*subsetTask, 0, 64)
		for mask := uint32(1)<<uint(size) - 1; mask <= full; {
			tasks = append(tasks, &subsetTask{mask: mask})
			// Gosper's hack: next-larger mask with the same popcount.
			c := mask & (^mask + 1)
			r := mask + c
			if r > full {
				break
			}
			mask = r | ((mask^r)>>2)/c
		}
		var collectNS int64
		var execStart time.Time
		if profiled {
			collectNS = int64(time.Since(rankStart))
			execStart = time.Now()
		}
		busy := runTasks(par, profiled, tasks, func(t *subsetTask) {
			o.runSubset(t, g, en, gl, table, mc, sink)
		})
		var execNS int64
		var absorbStart time.Time
		if profiled {
			execNS = int64(time.Since(execStart))
			absorbStart = time.Now()
		}

		// Barrier: fold tasks back in ascending mask order — the order a
		// serial walk visits subsets in — so dominance tie-breaks, event
		// sequence numbers, and generated names come out identical at
		// every parallelism level.
		for _, t := range tasks {
			if t.err != nil {
				return t.err
			}
			res.Stats.Subsets++
			res.Stats.Pairs += t.pairs
			sink.Absorb(t.sink)
			en.Stats.Add(t.en.Stats)
			en.MergeAlts(t.en)
			gl.Stats.Add(t.gl.Stats)
			gl.AddInjected(t.gl.Injected)
			en.Cost.AbsorbTemps(t.en.Cost)
			en.Cost.Arena.Absorb(t.en.Cost.Arena)
			table.Absorb(t.table)
		}
		if profiled {
			sink.ProfRank(obs.RankSample{
				Rank:      size,
				Tasks:     len(tasks),
				Workers:   len(busy),
				WallNS:    int64(time.Since(rankStart)),
				CollectNS: collectNS,
				ExecNS:    execNS,
				AbsorbNS:  int64(time.Since(absorbStart)),
				BusyNS:    busy,
			})
		}
		sizeSp.End(res.Stats.Pairs - sizePairs)
	}
	if len(table.Entry(g.TableSet())) == 0 {
		return fmt.Errorf("opt: no complete plan produced (disconnected join graph? enable CartesianProducts)")
	}
	return nil
}

// runTasks executes the rank's tasks on par workers (inline when par <= 1).
// Task completion order is scheduling-dependent; the caller re-establishes
// determinism by merging in task order. When profiled, the returned slice
// holds each worker's busy time over the execution window (each slot is
// written by exactly one worker goroutine and read only after wg.Wait);
// otherwise it is nil.
func runTasks(par int, profiled bool, tasks []*subsetTask, run func(*subsetTask)) []int64 {
	if par > len(tasks) {
		par = len(tasks)
	}
	if par <= 1 {
		if !profiled {
			for _, t := range tasks {
				run(t)
			}
			return nil
		}
		start := time.Now()
		for _, t := range tasks {
			run(t)
		}
		return []int64{int64(time.Since(start))}
	}
	var busy []int64
	if profiled {
		busy = make([]int64, par)
	}
	ch := make(chan *subsetTask)
	var wg sync.WaitGroup
	for i := 0; i < par; i++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for t := range ch {
				if profiled {
					t0 := time.Now()
					run(t)
					busy[w] += int64(time.Since(t0))
				} else {
					run(t)
				}
			}
		}(i)
	}
	for _, t := range tasks {
		ch <- t
	}
	close(ch)
	wg.Wait()
	return busy
}

// runSubset builds the isolated state for one subset task — child sink,
// forked pricing environment and engine (temp names namespaced by the
// subset mask), overlay plan table, and Gluer — then evaluates the subset.
func (o *Optimizer) runSubset(t *subsetTask, g *query.Graph, parent *star.Engine, parentGl *glue.Gluer, base *glue.PlanTable, mc *maskCache, sink *obs.Sink) {
	t.sink = sink.Child() // nil when observability is off
	env := parent.Cost.Fork()
	env.Obs = t.sink
	// A fresh sub-arena per task keeps node allocation single-goroutine; the
	// barrier absorbs its slabs into the parent arena (addresses unchanged).
	env.Arena = plan.NewArena()
	en := parent.Fork(env, t.sink, strconv.FormatUint(uint64(t.mask), 10)+".")
	if t.sink.ProfLabels() {
		// Label the worker goroutine with the rank it is executing; EvalRule
		// composes star= on top. Labels follow the task, so a worker pool
		// goroutine re-labels per task.
		rank := strconv.Itoa(bits.OnesCount32(t.mask))
		ctx := pprof.WithLabels(context.Background(), pprof.Labels("phase", "join-"+rank, "rank", rank))
		pprof.SetGoroutineLabels(ctx)
		en.LabelCtx = ctx
	}
	ov := glue.NewOverlay(base)
	ov.Obs = t.sink
	gl := &glue.Gluer{Engine: en, Graph: g, Table: ov, KeepAll: parentGl.KeepAll}
	en.Glue = gl.Glue
	en.PlanSites = gl.PlanSites
	t.en, t.gl, t.table = en, gl, ov
	t.err = o.joinSubset(t, g, en, ov, mc)
}

// joinSubset references JoinRoot for every joinable partition of the task's
// subset — the body of the old serial per-mask loop, now reading committed
// entries through the overlay and writing results into it.
func (o *Optimizer) joinSubset(t *subsetTask, g *query.Graph, en *star.Engine, table *glue.PlanTable, mc *maskCache) error {
	mask := t.mask
	S := mc.set(mask)
	eligible := g.EligibleWithin(S)
	sink := en.Obs
	full := uint32(1)<<uint(mc.n) - 1

	type pair struct{ s1, s2 uint32 }
	var connected, cartesian []pair
	low := mask & (^mask + 1) // dedupe unordered partitions: s1 keeps the lowest bit
	for sub := (mask - 1) & mask; sub > 0; sub = (sub - 1) & mask {
		if sub&low == 0 {
			continue
		}
		s1, s2 := sub, mask^sub
		if o.Opts.NoCompositeInners &&
			bits.OnesCount32(s1) > 1 && bits.OnesCount32(s2) > 1 {
			continue
		}
		if !table.HasEntry(mc.set(s1)) || !table.HasEntry(mc.set(s2)) {
			continue
		}
		if g.Connected(mc.set(s1), mc.set(s2)) {
			connected = append(connected, pair{s1, s2})
		} else {
			cartesian = append(cartesian, pair{s1, s2})
		}
	}
	pairs := connected
	// Prefer predicate-connected pairs as System R and R* did; consider
	// Cartesian products only when configured, or when nothing connects
	// the subset at the final join (so queries with disconnected join
	// graphs still plan).
	if o.Opts.CartesianProducts || (len(connected) == 0 && mask == full) {
		pairs = append(pairs, cartesian...)
	}
	for _, pr := range pairs {
		t.pairs++
		if sink.Enabled() {
			sink.Emit(obs.Event{Name: obs.EvPair,
				A1: mc.key(pr.s1), A2: mc.key(pr.s2)})
		}
		p := g.NewlyEligible(mc.set(pr.s1), mc.set(pr.s2))
		sap, err := en.EvalRule(o.joinRootName(), []star.Value{
			star.StreamValue(mc.set(pr.s1)),
			star.StreamValue(mc.set(pr.s2)),
			star.PredsValue(p),
		})
		if err != nil {
			return fmt.Errorf("opt: joining {%s} with {%s}: %w",
				mc.key(pr.s1), mc.key(pr.s2), err)
		}
		table.Insert(S, eligible, sap)
	}
	return nil
}
