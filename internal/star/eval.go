package star

import (
	"context"
	"fmt"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"stars/internal/cost"
	"stars/internal/expr"
	"stars/internal/obs"
	"stars/internal/plan"
)

// GlueRequest is what a Glue reference asks for: plans for a table set that
// additionally apply the pushed predicates and satisfy the accumulated
// required properties (Section 3.2).
type GlueRequest struct {
	// Tables is the quantifier set the stream must cover.
	Tables expr.TableSet
	// Push is the set of predicates the plans must additionally apply
	// (e.g. JP ∪ IP pushed into a nested-loop inner). For single tables,
	// Glue re-references the access STARs so plans can exploit these
	// predicates; for composites it retrofits FILTER veneers.
	Push expr.PredSet
	// Req is the accumulated required-property set.
	Req plan.Reqd
	// All asks for every satisfying plan rather than only the cheapest.
	All bool
}

// GlueFn is the Glue mechanism's entry point (package glue implements it;
// the indirection keeps this package free of a dependency cycle, and mirrors
// the paper's observation that Glue itself can be specified with STARs).
type GlueFn func(req *GlueRequest) ([]*plan.Node, error)

// LolepopBuilder constructs plan nodes for a LOLEPOP reference. Builders
// receive the reference's argument values (with SAPs for stream arguments)
// and implement the map-over-SAP semantics: one node per combination of
// input alternatives. They price nodes through the engine's cost
// environment.
type LolepopBuilder func(en *Engine, args []Value) (Value, error)

// HelperFunc is a condition or helper function referenced from rule text —
// the Go analogue of the paper's compiled C condition functions.
type HelperFunc func(en *Engine, args []Value) (Value, error)

// Stats counts the work the engine performs; experiment E5 compares these
// against the transformational baseline's counters.
type Stats struct {
	// RuleRefs counts STAR references evaluated.
	RuleRefs int64
	// AltsConsidered counts alternative definitions whose guard was
	// evaluated.
	AltsConsidered int64
	// AltsFired counts alternatives whose guard held and whose body was
	// evaluated.
	AltsFired int64
	// AltsRejected counts alternatives whose guard failed (or OTHERWISE
	// arms skipped because an earlier alternative fired).
	AltsRejected int64
	// PlansBuilt counts plan nodes constructed by LOLEPOP builders.
	PlansBuilt int64
	// PlansRejected counts node combinations discarded (e.g. join inputs
	// at different sites).
	PlansRejected int64
	// GlueCalls counts Glue references.
	GlueCalls int64
	// HelperCalls counts helper/condition invocations.
	HelperCalls int64
}

// Add accumulates o into s.
func (s *Stats) Add(o Stats) {
	s.RuleRefs += o.RuleRefs
	s.AltsConsidered += o.AltsConsidered
	s.AltsFired += o.AltsFired
	s.AltsRejected += o.AltsRejected
	s.PlansBuilt += o.PlansBuilt
	s.PlansRejected += o.PlansRejected
	s.GlueCalls += o.GlueCalls
	s.HelperCalls += o.HelperCalls
}

// AltTally is one alternative's typed coverage counters over an
// optimization: Fired counts condition-held evaluations, Rejected condition
// failures (and OTHERWISE arms skipped because an earlier alternative
// fired), Built the plans its body produced.
type AltTally struct {
	Fired, Rejected, Built int64
}

// TraceEntry records one STAR reference for explain-origin output. Entries
// are derived from the observability event stream (TraceFromEvents); the
// engine itself only emits obs events.
type TraceEntry struct {
	// Depth is the reference nesting depth.
	Depth int
	// Rule is the referenced STAR's name.
	Rule string
	// Args renders the reference's arguments.
	Args string
	// Alt is the 1-based index of an alternative; 0 for the reference
	// header line.
	Alt int
	// Plans is the number of plans the alternative produced.
	Plans int
	// Rejected marks an alternative whose condition failed (or an
	// OTHERWISE arm skipped because an earlier alternative fired).
	Rejected bool
	// Cond is the failing condition of applicability (DSL syntax) for a
	// rejected alternative.
	Cond string
}

// Engine evaluates STAR references. One engine serves one optimization; its
// statistics and temp-name counters reset per query.
type Engine struct {
	// Rules is the repertoire.
	Rules *RuleSet
	// Cost prices constructed nodes.
	Cost *cost.Env
	// Glue is the Glue mechanism.
	Glue GlueFn
	// QueryTables lists the query's quantifiers (for localQuery and
	// allSites).
	QueryTables []string
	// NeededCols resolves a quantifier to the columns the query needs
	// from it (select list plus every predicate reference).
	NeededCols func(q string) []expr.ColID
	// PlanSites reports the sites at which plans for a table set already
	// exist (falling back to catalog placement) — the C1 condition's
	// "T2[site] ≠ T2![site]" test needs it.
	PlanSites func(t expr.TableSet) []string
	// Stats accumulates work counters.
	Stats Stats
	// Obs receives rule-reference spans (with per-rule latency) and
	// alternative fired/rejected events. The nil sink costs a nil check;
	// see package obs.
	Obs *obs.Sink
	// LabelCtx carries the goroutine's pprof label context (phase=, rank=)
	// when the attached profiler pins labels; EvalRule composes a star=
	// label onto it so external CPU captures attribute samples to the STAR
	// being evaluated. Nil when labels are off.
	LabelCtx context.Context

	builders map[string]LolepopBuilder
	helpers  map[string]HelperFunc
	// declared holds extension-declared signatures (DeclareSignature) that
	// upgrade static checks from existence-only to arity/kind checking.
	declared SigTable
	depth    int
	tempSeq  int
	ixSeq    int
	// alts, when non-nil (CountAlts), holds one tally per alternative of
	// Rules; altBase maps each rule to its first alternative's slot. The
	// index is built once per optimization and shared read-only by forks.
	alts    []AltTally
	altBase map[*Rule]int
	// namePrefix namespaces NextTempName/NextIndexName ("" on the root
	// engine; a subset-task id on forked engines) so names generated by
	// concurrent workers are unique and — because the prefix derives from
	// the work item, not the worker — identical across schedules.
	namePrefix string
}

// maxDepth bounds rule recursion; the paper assumes the DBC writes STARs
// without infinite cycles, and this turns a violation into an error instead
// of a hang.
const maxDepth = 200

// NewEngine builds an engine with the built-in LOLEPOP builders and helper
// functions registered.
func NewEngine(rules *RuleSet, costEnv *cost.Env) *Engine {
	en := &Engine{
		Rules:    rules,
		Cost:     costEnv,
		builders: map[string]LolepopBuilder{},
		helpers:  map[string]HelperFunc{},
	}
	registerBuiltinBuilders(en)
	registerBuiltinHelpers(en)
	return en
}

// Fork returns an engine for one worker of a parallel enumeration. The
// repertoire and the builder/helper registries are copied from en (so
// Prepare-installed extensions carry over; builders and helpers are
// stateless functions receiving the engine per call), while the pricing
// environment, observability sink, and name prefix are the worker's own.
// Counters start at zero; the caller folds them back with Stats.Add. The
// caller wires Glue and PlanSites to the worker's Gluer.
func (en *Engine) Fork(costEnv *cost.Env, sink *obs.Sink, namePrefix string) *Engine {
	builders := make(map[string]LolepopBuilder, len(en.builders))
	for name, b := range en.builders {
		builders[name] = b
	}
	helpers := make(map[string]HelperFunc, len(en.helpers))
	for name, h := range en.helpers {
		helpers[name] = h
	}
	f := &Engine{
		Rules:       en.Rules,
		Cost:        costEnv,
		QueryTables: en.QueryTables,
		NeededCols:  en.NeededCols,
		Obs:         sink,
		builders:    builders,
		helpers:     helpers,
		declared:    en.declared.Clone(),
		altBase:     en.altBase,
		namePrefix:  namePrefix,
	}
	if en.alts != nil {
		f.alts = make([]AltTally, len(en.alts))
	}
	return f
}

// CountAlts turns on the typed per-alternative coverage counters: from now
// on every reference tallies each alternative's firings, rejections, and
// built plans. Forks made afterwards count too; fold them back with
// MergeAlts.
func (en *Engine) CountAlts() {
	en.altBase = make(map[*Rule]int, len(en.Rules.order))
	n := 0
	for _, name := range en.Rules.order {
		r := en.Rules.rules[name]
		en.altBase[r] = n
		n += len(r.Alts)
	}
	en.alts = make([]AltTally, n)
}

// MergeAlts adds a fork's alternative tallies into en's.
func (en *Engine) MergeAlts(o *Engine) {
	for i, t := range o.alts {
		a := &en.alts[i]
		a.Fired += t.Fired
		a.Rejected += t.Rejected
		a.Built += t.Built
	}
}

// AltTallies returns the per-alternative tallies in repertoire order — rules
// in RuleSet.Names order, each rule's alternatives in definition order — or
// nil when CountAlts was not called.
func (en *Engine) AltTallies() []AltTally { return en.alts }

// RegisterBuilder installs a LOLEPOP builder under its reference name
// (conventionally ALL CAPS, as in the paper's notation).
func (en *Engine) RegisterBuilder(name string, b LolepopBuilder) { en.builders[name] = b }

// RegisterHelper installs a helper/condition function.
func (en *Engine) RegisterHelper(name string, h HelperFunc) { en.helpers[name] = h }

// HasBuilder reports whether name is a registered LOLEPOP.
func (en *Engine) HasBuilder(name string) bool { _, ok := en.builders[name]; return ok }

// HasHelper reports whether name is a registered helper.
func (en *Engine) HasHelper(name string) bool { _, ok := en.helpers[name]; return ok }

// Validate checks the rule set against this engine's registries via the
// shared reference pass (CheckRefs): undefined references, STAR and Glue
// call shapes, and — for builders/helpers with known signatures, which all
// builtins have — call arity.
func (en *Engine) Validate() error {
	return refDiagsToError(CheckRefsSigs(en.Rules, en.Signatures()))
}

// NextTempName returns a fresh temp-table name ("_t1" on the root engine,
// "_t<prefix>1" on a forked worker).
func (en *Engine) NextTempName() string {
	en.tempSeq++
	return "_t" + en.namePrefix + strconv.Itoa(en.tempSeq)
}

// NextIndexName returns a fresh dynamic-index name.
func (en *Engine) NextIndexName() string {
	en.ixSeq++
	return "_ix" + en.namePrefix + strconv.Itoa(en.ixSeq)
}

// EvalRule evaluates a reference of the named STAR with the given arguments
// and returns its SAP. This is the paper's substitution step: replace the
// reference with the alternative definitions whose conditions hold, binding
// parameters to arguments.
func (en *Engine) EvalRule(name string, args []Value) (out []*plan.Node, err error) {
	rule := en.Rules.Get(name)
	if rule == nil {
		return nil, fmt.Errorf("star: reference of undefined STAR %q", name)
	}
	if len(args) != len(rule.Params) {
		return nil, fmt.Errorf("star: %s expects %d arguments, got %d", name, len(rule.Params), len(args))
	}
	if en.depth >= maxDepth {
		return nil, fmt.Errorf("star: rule recursion exceeds %d at %s (cycle in STARs?)", maxDepth, name)
	}
	en.depth++
	en.Stats.RuleRefs++
	var sp obs.Span
	if en.Obs.Enabled() {
		// renderArgs allocates, so the arguments are rendered only for a
		// sink that streams its events; metrics-only sinks time the span
		// by rule name alone.
		var rendered string
		if en.Obs.Streams() {
			rendered = renderArgs(args)
		}
		sp = en.Obs.StartSpan(obs.EvRule, name, rendered, en.depth)
	}
	defer func() {
		sp.End(int64(len(out)))
		en.depth--
	}()
	profiled := en.Obs.ProfEnabled()
	if profiled && en.Obs.ProfLabels() {
		// Compose star=<rule> onto the phase/rank labels and restore the
		// enclosing reference's label set on the way out.
		prev := en.LabelCtx
		base := prev
		if base == nil {
			base = context.Background()
		}
		ctx := pprof.WithLabels(base, pprof.Labels("star", name))
		pprof.SetGoroutineLabels(ctx)
		en.LabelCtx = ctx
		defer func() {
			en.LabelCtx = prev
			pprof.SetGoroutineLabels(base)
		}()
	}

	frame := make(map[string]Value, len(rule.Params)+len(rule.Where))
	for i, p := range rule.Params {
		frame[p] = args[i]
	}
	for _, let := range rule.Where {
		v, err := en.evalExpr(let.Expr, frame)
		if err != nil {
			return nil, fmt.Errorf("star: %s where %s: %w", name, let.Name, err)
		}
		frame[let.Name] = v
	}

	var tally []AltTally
	if en.alts != nil {
		base := en.altBase[rule]
		tally = en.alts[base : base+len(rule.Alts)]
	}
	seen := map[uint64]bool{}
	fired := false
	for i, alt := range rule.Alts {
		en.Stats.AltsConsidered++
		applicable := true
		switch {
		case alt.Otherwise:
			applicable = !fired
		case alt.Cond != nil:
			var g0 time.Time
			if profiled {
				g0 = time.Now()
			}
			cv, err := en.evalExpr(alt.Cond, frame)
			if profiled {
				en.Obs.ProfActivity(obs.ActGuard, time.Since(g0), 1)
			}
			if err != nil {
				return nil, fmt.Errorf("star: %s alternative %d condition: %w", name, i+1, err)
			}
			applicable = cv.Truthy()
		}
		if !applicable {
			en.Stats.AltsRejected++
			if tally != nil {
				tally[i].Rejected++
			}
			if en.Obs.Enabled() {
				// Name the failing condition of applicability so WHYNOT
				// can cite it; rendering allocates, so only when observed.
				cond := "OTHERWISE: an earlier alternative fired"
				if !alt.Otherwise && alt.Cond != nil {
					cond = alt.Cond.String()
				}
				en.Obs.Emit(obs.Event{Name: obs.EvAltRejected, A1: name, A2: cond,
					Depth: en.depth + 1, N1: int64(i + 1)})
			}
			continue
		}
		fired = true
		en.Stats.AltsFired++
		v, err := en.evalExpr(alt.Body, frame)
		if err != nil {
			return nil, fmt.Errorf("star: %s alternative %d: %w", name, i+1, err)
		}
		if v.Kind != VSAP {
			return nil, fmt.Errorf("star: %s alternative %d produced %s, want plans", name, i+1, v.Kind)
		}
		for _, p := range v.SAP {
			if p.Origin == "" {
				p.Origin = alt.origin
			}
			k := p.FP64()
			if !seen[k] {
				seen[k] = true
				out = append(out, p)
			}
		}
		if tally != nil {
			tally[i].Fired++
			tally[i].Built += int64(len(v.SAP))
		}
		if en.Obs.Enabled() {
			en.Obs.Emit(obs.Event{Name: obs.EvAltFired, A1: name, Depth: en.depth + 1, N1: int64(i + 1), N2: int64(len(v.SAP))})
		}
		if rule.Exclusive {
			break
		}
	}
	return out, nil
}

func renderArgs(args []Value) string {
	parts := make([]string, len(args))
	for i, a := range args {
		parts[i] = a.String()
	}
	return strings.Join(parts, ", ")
}

// evalExpr evaluates one rule-language expression under the frame.
func (en *Engine) evalExpr(e RExpr, frame map[string]Value) (Value, error) {
	switch n := e.(type) {
	case *Ident:
		v, ok := frame[n.Name]
		if !ok {
			return Null, fmt.Errorf("unbound name %q", n.Name)
		}
		return v, nil
	case *StrLit:
		return StrValue(n.Val), nil
	case *NumLit:
		return NumValue(n.Val), nil
	case *EmptySet:
		return PredsValue(expr.NewPredSet()), nil
	case *AllCols:
		return AllColsValue, nil
	case *Annot:
		return en.evalAnnot(n, frame)
	case *Forall:
		return en.evalForall(n, frame)
	case *Logic:
		for _, k := range n.Kids {
			v, err := en.evalExpr(k, frame)
			if err != nil {
				return Null, err
			}
			if n.OpAnd && !v.Truthy() {
				return BoolValue(false), nil
			}
			if !n.OpAnd && v.Truthy() {
				return BoolValue(true), nil
			}
		}
		return BoolValue(n.OpAnd), nil
	case *NotExpr:
		v, err := en.evalExpr(n.Kid, frame)
		if err != nil {
			return Null, err
		}
		return BoolValue(!v.Truthy()), nil
	case *Call:
		return en.evalCall(n, frame)
	default:
		return Null, fmt.Errorf("unknown expression node %T", e)
	}
}

func (en *Engine) evalAnnot(n *Annot, frame map[string]Value) (Value, error) {
	kid, err := en.evalExpr(n.Kid, frame)
	if err != nil {
		return Null, err
	}
	if kid.Kind != VStream {
		return Null, fmt.Errorf("required-property brackets apply to streams, not %s", kid.Kind)
	}
	var req plan.Reqd
	for _, item := range n.Reqs {
		var v Value
		if item.Val != nil {
			v, err = en.evalExpr(item.Val, frame)
			if err != nil {
				return Null, err
			}
		}
		switch item.Key {
		case "order":
			if v.Kind != VCols {
				return Null, fmt.Errorf("[order=...] wants columns, got %s", v.Kind)
			}
			req.Order = v.Cols
		case "site":
			if v.Kind != VStr {
				return Null, fmt.Errorf("[site=...] wants a site name, got %s", v.Kind)
			}
			s := v.Str
			req.Site = &s
		case "temp":
			if item.Val != nil {
				return Null, fmt.Errorf("[temp] takes no value")
			}
			req.Temp = true
		case "paths":
			if v.Kind != VCols {
				return Null, fmt.Errorf("[paths=...] wants index key columns, got %s", v.Kind)
			}
			req.PathCols = v.Cols
		default:
			return Null, fmt.Errorf("unknown required property %q", item.Key)
		}
	}
	return kid.WithReq(req), nil
}

func (en *Engine) evalForall(n *Forall, frame map[string]Value) (Value, error) {
	set, err := en.evalExpr(n.Set, frame)
	if err != nil {
		return Null, err
	}
	if set.Kind != VList {
		return Null, fmt.Errorf("forall wants a list, got %s", set.Kind)
	}
	inner := make(map[string]Value, len(frame)+1)
	for k, v := range frame {
		inner[k] = v
	}
	var out []*plan.Node
	seen := map[uint64]bool{}
	for _, elem := range set.List {
		inner[n.Var] = elem
		if n.Cond != nil {
			en.Stats.AltsConsidered++
			cv, err := en.evalExpr(n.Cond, inner)
			if err != nil {
				return Null, err
			}
			if !cv.Truthy() {
				continue
			}
			en.Stats.AltsFired++
		}
		v, err := en.evalExpr(n.Body, inner)
		if err != nil {
			return Null, err
		}
		if v.Kind != VSAP {
			return Null, fmt.Errorf("forall body produced %s, want plans", v.Kind)
		}
		for _, p := range v.SAP {
			k := p.FP64()
			if !seen[k] {
				seen[k] = true
				out = append(out, p)
			}
		}
	}
	return SAPValue(out), nil
}

func (en *Engine) evalCall(n *Call, frame map[string]Value) (Value, error) {
	args := make([]Value, len(n.Args))
	for i, a := range n.Args {
		v, err := en.evalExpr(a, frame)
		if err != nil {
			return Null, err
		}
		args[i] = v
	}
	// Glue is special: it bridges to the plan table.
	if n.Name == "Glue" {
		return en.evalGlue(args)
	}
	// A rule reference: the dictionary-lookup substitution step.
	if en.Rules.Get(n.Name) != nil {
		sap, err := en.EvalRule(n.Name, args)
		if err != nil {
			return Null, err
		}
		return SAPValue(sap), nil
	}
	if b, ok := en.builders[n.Name]; ok {
		return b(en, args)
	}
	if h, ok := en.helpers[n.Name]; ok {
		en.Stats.HelperCalls++
		return h(en, args)
	}
	return Null, fmt.Errorf("reference of undefined name %q", n.Name)
}

// evalGlue handles Glue(stream, pushPreds): it hands the stream's table set,
// accumulated requirements, and pushed predicates to the Glue mechanism.
func (en *Engine) evalGlue(args []Value) (Value, error) {
	if len(args) != 2 {
		return Null, fmt.Errorf("Glue wants (stream, preds), got %d args", len(args))
	}
	if args[0].Kind != VStream {
		return Null, fmt.Errorf("Glue's first argument must be a stream, got %s", args[0].Kind)
	}
	if args[1].Kind != VPreds {
		return Null, fmt.Errorf("Glue's second argument must be predicates, got %s", args[1].Kind)
	}
	if en.Glue == nil {
		return Null, fmt.Errorf("no Glue mechanism wired to the engine")
	}
	en.Stats.GlueCalls++
	sv := args[0].Stream
	plans, err := en.Glue(&GlueRequest{
		Tables: sv.Tables,
		Push:   args[1].Preds,
		Req:    sv.Req,
	})
	if err != nil {
		return Null, err
	}
	return SAPValue(plans), nil
}

// TraceFromEvents reconstructs the rule-firing log from an observability
// event stream, in emission order: each rule-reference span becomes a header
// entry (its Plans filled in from the span's end event) and each
// fired/rejected alternative becomes a child entry — so FormatTrace shows
// the full fanout, rejections included.
func TraceFromEvents(events []obs.Event) []TraceEntry {
	var out []TraceEntry
	open := map[int64]int{}
	for _, e := range events {
		switch {
		case e.Name == obs.EvRule && e.Kind == obs.KindSpanBegin:
			open[e.Span] = len(out)
			out = append(out, TraceEntry{Depth: e.Depth, Rule: e.A1, Args: e.A2})
		case e.Name == obs.EvRule && e.Kind == obs.KindSpanEnd:
			if i, ok := open[e.Span]; ok {
				out[i].Plans = int(e.N1)
				delete(open, e.Span)
			}
		case e.Name == obs.EvAltFired && e.Kind == obs.KindInstant:
			out = append(out, TraceEntry{Depth: e.Depth, Rule: e.A1, Alt: int(e.N1), Plans: int(e.N2)})
		case e.Name == obs.EvAltRejected && e.Kind == obs.KindInstant:
			out = append(out, TraceEntry{Depth: e.Depth, Rule: e.A1, Alt: int(e.N1), Rejected: true, Cond: e.A2})
		}
	}
	return out
}

// FormatTrace renders the captured trace as an indented firing log.
func FormatTrace(entries []TraceEntry) string {
	var b strings.Builder
	for _, t := range entries {
		indent := strings.Repeat("  ", t.Depth-1)
		switch {
		case t.Alt == 0:
			fmt.Fprintf(&b, "%s%s(%s) -> %d plans\n", indent, t.Rule, t.Args, t.Plans)
		case t.Rejected && t.Cond != "":
			fmt.Fprintf(&b, "%s  alt#%d rejected: %s\n", indent, t.Alt, t.Cond)
		case t.Rejected:
			fmt.Fprintf(&b, "%s  alt#%d rejected\n", indent, t.Alt)
		default:
			fmt.Fprintf(&b, "%s  alt#%d fired: %d plans\n", indent, t.Alt, t.Plans)
		}
	}
	return b.String()
}
