// Package exec is the query evaluator: it interprets a QEP — a DAG of
// LOLEPOPs — at run time against the storage engine, exactly the role the
// paper assigns the "query evaluator" that the grammar's terminals target.
//
// Execution uses the Iterator (Open/Next/Close) model. Nested-loop joins
// re-open their inner per outer tuple with the outer tuple's bindings
// pushed, which is how pushed-down join predicates (sideways information
// passing) become single-table predicates on the inner at run time.
//
// Like the cost model, the evaluator is extensible (Section 5): a Database
// Customizer registers a run-time routine per new LOLEPOP.
package exec

import (
	"fmt"
	"time"

	"stars/internal/catalog"
	"stars/internal/cost"
	"stars/internal/datum"
	"stars/internal/expr"
	"stars/internal/obs"
	"stars/internal/plan"
	"stars/internal/storage"
)

// Runtime holds what executions need: the stored data (per-site stores) and
// the catalog, plus the registry of operator implementations.
type Runtime struct {
	// Cluster is the per-site storage.
	Cluster *storage.Cluster
	// Cat is the catalog the plans were optimized against.
	Cat *catalog.Catalog
	// Obs, when enabled, receives an exec.run span per Run plus one
	// exec.op event per plan node (when CollectOpStats is also set), and
	// the run's resource counters as metrics. When nil, obs.DefaultSink() is
	// consulted, mirroring the optimizer's Options.Obs fallback.
	Obs *obs.Sink
	// CollectOpStats attributes rows/CPU/IO/messages to individual plan
	// nodes (Result.Ops) — the raw material of EXPLAIN ANALYZE. Off by
	// default: attribution snapshots counters around every operator call.
	CollectOpStats bool

	builders map[plan.Op]IterBuilder
}

// IterBuilder constructs the Iterator for one node kind. The children are
// not yet built; implementations call ec.build on inputs they consume as
// streams.
type IterBuilder func(ec *Ctx, n *plan.Node) (Iterator, error)

// NewRuntime builds a runtime with the built-in operator implementations.
func NewRuntime(cluster *storage.Cluster, cat *catalog.Catalog) *Runtime {
	rt := &Runtime{Cluster: cluster, Cat: cat, builders: map[plan.Op]IterBuilder{}}
	rt.Register(plan.OpAccess, buildAccess)
	rt.Register(plan.OpGet, buildGet)
	rt.Register(plan.OpSort, buildSort)
	rt.Register(plan.OpShip, buildShip)
	rt.Register(plan.OpStore, buildStore)
	rt.Register(plan.OpFilter, buildFilter)
	rt.Register(plan.OpBuildIndex, buildBuildIndex)
	rt.Register(plan.OpJoin, buildJoin)
	rt.Register(plan.OpUnion, buildUnion)
	rt.Register(plan.OpIndexAnd, buildIndexAnd)
	return rt
}

// Register installs (or replaces) the run-time routine for an Op — the
// Section 5 extension point.
func (rt *Runtime) Register(op plan.Op, b IterBuilder) { rt.builders[op] = b }

// Registered reports whether op has a run-time routine.
func (rt *Runtime) Registered(op plan.Op) bool { _, ok := rt.builders[op]; return ok }

// ExecStats reports what one execution actually did, for comparison against
// the optimizer's estimates (experiment E11, in the spirit of [MACK 86]).
type ExecStats struct {
	// IO aggregates page-level counters across all sites.
	IO storage.Counters
	// Messages and BytesShipped count SHIP traffic.
	Messages     int64
	BytesShipped int64
	// RowsOut is the result cardinality.
	RowsOut int64
	// CPUOps counts tuple-handling operations (rows moved through
	// operators), the executable analogue of the cost model's CPU term.
	CPUOps int64
}

// ActualCost converts the observed counters into the cost model's units so
// estimated and actual costs are directly comparable.
func (s ExecStats) ActualCost(w cost.Weights) float64 {
	return w.IO*float64(s.IO.TotalPages()) +
		w.CPU*float64(s.CPUOps) +
		w.Msg*float64(s.Messages) +
		w.Byte*float64(s.BytesShipped)
}

// Add accumulates another execution's counters (mirrors star.Stats.Add).
func (s *ExecStats) Add(o ExecStats) {
	s.IO.Add(o.IO)
	s.Messages += o.Messages
	s.BytesShipped += o.BytesShipped
	s.RowsOut += o.RowsOut
	s.CPUOps += o.CPUOps
}

// OpStats is one plan node's observed execution profile, inclusive of its
// subtree (like EXPLAIN ANALYZE's per-node actuals). Rows accumulate across
// re-opens, so a nested-loop inner reports total rows over all probes;
// Opens is the loop count.
type OpStats struct {
	// Opens counts Open calls (nested-loop inners re-open per outer row).
	Opens int64
	// Rows counts rows the operator produced, summed over all opens.
	Rows int64
	// CPUOps counts tuple-handling operations in the node's subtree.
	CPUOps int64
	// IO aggregates page-level counters attributed to the subtree.
	IO storage.Counters
	// Messages and BytesShipped count SHIP traffic in the subtree.
	Messages     int64
	BytesShipped int64
	// Elapsed is wall-clock time spent inside the subtree's iterators.
	Elapsed time.Duration
}

// ActualCost converts the node's observed counters into cost-model units.
func (s OpStats) ActualCost(w cost.Weights) float64 {
	return w.IO*float64(s.IO.TotalPages()) +
		w.CPU*float64(s.CPUOps) +
		w.Msg*float64(s.Messages) +
		w.Byte*float64(s.BytesShipped)
}

// Result is one execution's output.
type Result struct {
	// Schema names the output columns positionally.
	Schema []expr.ColID
	// Rows is the result set.
	Rows []datum.Row
	// Stats is the observed resource usage.
	Stats ExecStats
	// Ops holds per-node actuals when Runtime.CollectOpStats was set.
	Ops map[*plan.Node]*OpStats
	// Feedback holds one estimate-vs-actual row per executed operator, in
	// pre-order over the plan, when Runtime.CollectOpStats was set.
	Feedback []Feedback
}

// Feedback is one executed operator's estimate-vs-actual row, the typed
// form of an exec.feedback event. Feedback consumers (the serve daemon's
// Q-error ledger, the flight recorder) key on the fingerprint, so the same
// operator is recognizable across requests and processes.
type Feedback struct {
	// Op is the operator name; Fingerprint the plan node's fingerprint.
	Op          string
	Fingerprint string
	// Rows are the actual rows summed over all Loops (opens).
	Rows, Loops int64
	// Est is the optimizer's estimated cardinality; QError
	// max(est/act, act/est) with both clamped to >= 1, where act is the
	// per-open average row count.
	Est, QError float64
}

// Event renders the row as an exec.feedback event.
func (f Feedback) Event() obs.Event {
	return obs.Event{Name: obs.EvExecFeedback, A1: f.Op, A2: f.Fingerprint,
		N1: f.Rows, N2: f.Loops, F1: f.Est, F2: f.QError}
}

// Run executes the plan and drains its output. Counters are measured from
// zero for this run (the cluster's counters are reset).
func (rt *Runtime) Run(root *plan.Node) (result *Result, err error) {
	rt.Cluster.ResetCounters()
	ec := &Ctx{rt: rt, temps: map[*plan.Node]*tempHandle{}}
	if rt.CollectOpStats {
		ec.ops = map[*plan.Node]*OpStats{}
	}
	sink := rt.Obs
	if sink == nil {
		sink = obs.DefaultSink()
	}
	var sp obs.Span
	if sink.Enabled() {
		sp = sink.StartSpan(obs.EvExecRun, string(root.Op), "", 0)
		defer func() {
			var rows int64
			if result != nil {
				rows = result.Stats.RowsOut
			}
			sp.End(rows)
		}()
	}
	it, err := ec.build(root)
	if err != nil {
		return nil, err
	}
	if err := it.Open(nil); err != nil {
		return nil, err
	}
	res := &Result{Schema: it.Schema(), Ops: ec.ops}
	for {
		row, ok, err := it.Next()
		if err != nil {
			it.Close()
			return nil, err
		}
		if !ok {
			break
		}
		res.Rows = append(res.Rows, row.Clone())
	}
	if err := it.Close(); err != nil {
		return nil, err
	}
	res.Stats.IO = rt.Cluster.TotalCounters()
	res.Stats.Messages = rt.Cluster.Messages
	res.Stats.BytesShipped = rt.Cluster.BytesShipped
	res.Stats.RowsOut = int64(len(res.Rows))
	res.Stats.CPUOps = ec.cpuOps
	var nodes []*plan.Node
	if ec.ops != nil {
		nodes = opOrder(root, ec.ops)
		res.Feedback = make([]Feedback, len(nodes))
		for i, n := range nodes {
			res.Feedback[i] = feedbackRow(n, ec.ops[n])
		}
	}
	if sink.Enabled() {
		reg := sink.Registry()
		for i, n := range nodes {
			st := ec.ops[n]
			sink.Emit(obs.Event{Name: obs.EvExecOp, A1: string(n.Op), A2: n.Table,
				N1: st.Rows, N2: st.IO.TotalPages()})
			sink.Emit(res.Feedback[i].Event())
			reg.Counter("qerror_observations_total").Add(1)
		}
		reg.Counter("exec_rows_total").Add(res.Stats.RowsOut)
		reg.Counter("exec_cpu_ops_total").Add(res.Stats.CPUOps)
		reg.Counter("exec_pages_total").Add(res.Stats.IO.TotalPages())
		reg.Counter("exec_messages_total").Add(res.Stats.Messages)
		reg.Counter("exec_bytes_shipped_total").Add(res.Stats.BytesShipped)
	}
	return res, nil
}

// opOrder lists the executed plan's nodes that carry actuals in a
// deterministic pre-order walk (the ops map's iteration order is not
// stable). Each becomes one exec.op event paired with one exec.feedback
// event that closes the estimate-vs-actual loop.
func opOrder(root *plan.Node, ops map[*plan.Node]*OpStats) []*plan.Node {
	var out []*plan.Node
	seen := map[*plan.Node]bool{}
	var walk func(n *plan.Node)
	walk = func(n *plan.Node) {
		if seen[n] {
			return
		}
		seen[n] = true
		if ops[n] != nil {
			out = append(out, n)
		}
		for _, in := range n.Inputs {
			walk(in)
		}
	}
	walk(root)
	return out
}

// feedbackRow compares one node's estimate with its actuals.
func feedbackRow(n *plan.Node, st *OpStats) Feedback {
	var est float64
	if n.Props != nil {
		est = n.Props.Card
	}
	// A nested-loop inner's Rows sum over all opens; compare the per-open
	// average against the per-open estimate.
	act := float64(st.Rows)
	if st.Opens > 1 {
		act /= float64(st.Opens)
	}
	return Feedback{Op: string(n.Op), Fingerprint: n.Fingerprint(),
		Rows: st.Rows, Loops: st.Opens, Est: est, QError: plan.QError(est, act)}
}

// Actuals adapts a Result's per-node stats to plan.ExplainAnalyze's lookup,
// translating observed counters into cost-model units under w.
func Actuals(res *Result, w cost.Weights) func(*plan.Node) (plan.Actual, bool) {
	return func(n *plan.Node) (plan.Actual, bool) {
		st, ok := res.Ops[n]
		if !ok {
			return plan.Actual{}, false
		}
		return plan.Actual{
			Rows:    st.Rows,
			Loops:   st.Opens,
			Cost:    st.ActualCost(w),
			Elapsed: st.Elapsed,
		}, true
	}
}

// Ctx is per-execution state: temp materializations are memoized so a
// nested-loop rescan reads the temp instead of rebuilding it.
type Ctx struct {
	rt     *Runtime
	temps  map[*plan.Node]*tempHandle
	cpuOps int64
	// ops, when non-nil, attributes actuals to plan nodes (CollectOpStats).
	ops map[*plan.Node]*OpStats
}

// tempHandle is a materialized temp: its storage and positional schema.
type tempHandle struct {
	td     *storage.TableData
	schema []expr.ColID
	site   string
}

// Iterator is the operator interface. Open may be called repeatedly (the
// nested-loop join re-opens its inner per outer tuple); outer carries the
// bindings of enclosing operators for per-probe predicate evaluation.
type Iterator interface {
	// Schema returns the positional output columns; valid before Open.
	Schema() []expr.ColID
	// Open (re)starts the stream under the given outer bindings.
	Open(outer expr.Binding) error
	// Next returns the next row; ok=false at end of stream.
	Next() (row datum.Row, ok bool, err error)
	// Close releases resources; the Iterator may be re-Opened after.
	Close() error
}

// build constructs the Iterator for a node via the registry, wrapping it for
// per-node attribution when CollectOpStats is on.
func (ec *Ctx) build(n *plan.Node) (Iterator, error) {
	b, ok := ec.rt.builders[n.Op]
	if !ok {
		return nil, fmt.Errorf("exec: no run-time routine registered for %s", n.Op)
	}
	it, err := b(ec, n)
	if err != nil || ec.ops == nil {
		return it, err
	}
	st := ec.ops[n]
	if st == nil {
		st = &OpStats{}
		ec.ops[n] = st
	}
	return &opIter{it: it, ec: ec, st: st}, nil
}

// opIter wraps an operator's Iterator, attributing each call's resource
// deltas — CPU ticks, page I/O, SHIP traffic, wall time — to the node's
// OpStats. Children are wrapped too and their calls nest inside the
// parent's, so every node's stats are inclusive of its subtree.
type opIter struct {
	it Iterator
	ec *Ctx
	st *OpStats
}

func (o *opIter) Schema() []expr.ColID { return o.it.Schema() }

// measure snapshots the execution's counters and returns a closure folding
// the deltas into the node's stats.
func (o *opIter) measure() func() {
	ec, cl := o.ec, o.ec.rt.Cluster
	t0 := time.Now()
	cpu0 := ec.cpuOps
	io0 := cl.TotalCounters()
	msg0, bytes0 := cl.Messages, cl.BytesShipped
	return func() {
		o.st.Elapsed += time.Since(t0)
		o.st.CPUOps += ec.cpuOps - cpu0
		o.st.IO.Add(cl.TotalCounters().Sub(io0))
		o.st.Messages += cl.Messages - msg0
		o.st.BytesShipped += cl.BytesShipped - bytes0
	}
}

func (o *opIter) Open(outer expr.Binding) error {
	o.st.Opens++
	done := o.measure()
	defer done()
	return o.it.Open(outer)
}

func (o *opIter) Next() (datum.Row, bool, error) {
	done := o.measure()
	defer done()
	row, ok, err := o.it.Next()
	if ok {
		o.st.Rows++
	}
	return row, ok, err
}

func (o *opIter) Close() error {
	done := o.measure()
	defer done()
	return o.it.Close()
}

// Build constructs the Iterator for an input node; extension run-time
// routines (Section 5) use it to build their children.
func (ec *Ctx) Build(n *plan.Node) (Iterator, error) { return ec.build(n) }

// Tick counts one tuple-handling operation toward the execution's CPU
// statistics; run-time routines call it once per row they produce.
func (ec *Ctx) Tick() { ec.cpuOps++ }

// Runtime returns the runtime (cluster + catalog) the execution runs on.
func (ec *Ctx) Runtime() *Runtime { return ec.rt }

// NewRowBinding builds a binding over a positional schema that defers
// unresolved columns to outer — the same chain built-in operators use.
func NewRowBinding(schema []expr.ColID, outer expr.Binding) *RowBinding {
	return &RowBinding{idx: schemaIndex(schema), outer: outer}
}

// SetRow points the binding at the current row.
func (b *RowBinding) SetRow(row datum.Row) { b.row = row }

// EvalPreds reports whether every predicate definitely holds under b.
func EvalPreds(preds []expr.Expr, b expr.Binding) bool { return evalPreds(preds, b) }

// schemaIndex maps columns to their positions.
func schemaIndex(schema []expr.ColID) map[expr.ColID]int {
	m := make(map[expr.ColID]int, len(schema))
	for i, c := range schema {
		m[c] = i
	}
	return m
}

// RowBinding resolves columns against one positional row, deferring to an
// outer binding for columns it does not carry (the sideways-information
// chain).
type RowBinding struct {
	idx   map[expr.ColID]int
	row   datum.Row
	outer expr.Binding
}

// ColValue implements expr.Binding.
func (b *RowBinding) ColValue(c expr.ColID) (datum.Datum, bool) {
	if i, ok := b.idx[c]; ok && i < len(b.row) {
		return b.row[i], true
	}
	if b.outer != nil {
		return b.outer.ColValue(c)
	}
	return datum.Null, false
}

// packTID encodes a storage TID as an integer datum for the TID
// pseudo-column.
func packTID(t storage.TID) datum.Datum {
	return datum.NewInt(int64(t.Page)<<32 | int64(uint32(t.Slot)))
}

// unpackTID decodes a TID pseudo-column value.
func unpackTID(d datum.Datum) (storage.TID, error) {
	if d.Kind() != datum.KindInt {
		return storage.TID{}, fmt.Errorf("exec: TID column holds %s", d.Kind())
	}
	v := d.Int()
	return storage.TID{Page: int32(v >> 32), Slot: int32(uint32(v))}, nil
}

// evalPreds reports whether every predicate definitely holds for the row.
func evalPreds(preds []expr.Expr, b expr.Binding) bool {
	for _, p := range preds {
		if !expr.EvalBool(p, b) {
			return false
		}
	}
	return true
}

// storeFor returns the store holding the named base table.
func (ec *Ctx) storeFor(table string) *storage.Store {
	return ec.rt.Cluster.Store(ec.rt.Cat.SiteOf(table))
}
