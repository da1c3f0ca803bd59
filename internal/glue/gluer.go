package glue

import (
	"fmt"

	"stars/internal/expr"
	"stars/internal/obs"
	"stars/internal/plan"
	"stars/internal/query"
	"stars/internal/star"
)

// Stats counts Glue activity.
type Stats struct {
	// Calls counts Glue references.
	Calls int64
	// Hits counts references satisfied from the plan table.
	Hits int64
	// Misses counts references that re-referenced access STARs or
	// retrofitted predicates.
	Misses int64
	// Veneers counts Glue operators injected.
	Veneers int64
}

// Add accumulates another run's counters (mirrors star.Stats.Add).
func (s *Stats) Add(o Stats) {
	s.Calls += o.Calls
	s.Hits += o.Hits
	s.Misses += o.Misses
	s.Veneers += o.Veneers
}

// Gluer is the Glue mechanism wired to a STAR engine, a query, and a plan
// table.
type Gluer struct {
	// Engine evaluates access STARs on plan-table misses and prices
	// veneer nodes.
	Engine *star.Engine
	// Graph is the query being optimized.
	Graph *query.Graph
	// Table is the plan table.
	Table *PlanTable
	// KeepAll makes Glue return every satisfying plan instead of only the
	// cheapest (the paper's optional mode; an ablation benchmark flips
	// it).
	KeepAll bool
	// Stats accumulates counters.
	Stats Stats
	// Injected tallies veneer injections per operator, in first-injection
	// order — the typed coverage counter the optimizer reads. Counted
	// only while the engine's sink is enabled.
	Injected []OpCount
}

// OpCount is one Glue operator's injection tally.
type OpCount struct {
	Op plan.Op
	N  int64
}

// AddInjected folds injection tallies (a forked Gluer's) into g's.
func (g *Gluer) AddInjected(counts []OpCount) {
	for _, c := range counts {
		g.inject(c.Op, c.N)
	}
}

func (g *Gluer) inject(op plan.Op, n int64) {
	for i := range g.Injected {
		if g.Injected[i].Op == op {
			g.Injected[i].N += n
			return
		}
	}
	g.Injected = append(g.Injected, OpCount{Op: op, N: n})
}

// AccessRootRule names the STAR Glue references when no plans exist for a
// single table's relational properties.
const AccessRootRule = "AccessRoot"

// Glue implements star.GlueFn. See the package comment for the three steps.
func (g *Gluer) Glue(req *star.GlueRequest) (result []*plan.Node, err error) {
	g.Stats.Calls++
	var sp obs.Span
	if g.Engine.Obs.Enabled() {
		var reqd string
		if g.Engine.Obs.Streams() {
			reqd = req.Req.String()
		}
		sp = g.Engine.Obs.StartSpan(obs.EvGlue, req.Tables.Key(), reqd, 0)
		defer func() { sp.End(int64(len(result))) }()
	}
	base := g.Graph.EligibleWithin(req.Tables)
	// Pushed predicates split into static ones (columns within the table
	// set; applicable once) and bound ones (columns referencing the outer
	// side; re-evaluated per probe via sideways information passing).
	// Bound predicates must never sink below a materialization: a temp's
	// contents cannot depend on the current outer tuple.
	static := req.Push.Within(req.Tables)
	bound := req.Push.Minus(static)
	materialize := req.Req.Temp || len(req.Req.PathCols) > 0

	lookup := base.Union(static)
	if !materialize {
		lookup = lookup.Union(bound)
	}
	cands, err := g.ensurePlans(req.Tables, lookup)
	if err != nil {
		return nil, err
	}

	full := base.Union(static).Union(bound)
	var out []*plan.Node
	for _, cand := range cands {
		v, err := g.veneer(cand, req.Req, full)
		if err != nil {
			return nil, err
		}
		if v != nil {
			out = append(out, v)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("glue: no plan for {%s} satisfies %s", req.Tables.Key(), req.Req)
	}
	// Newly veneered plans join the table so later references find them
	// (Figure 3's third plan came from an earlier Glue reference).
	out = g.Table.Insert(req.Tables, full, out)

	var satisfying []*plan.Node
	for _, p := range out {
		if req.Req.SatisfiedBy(p.Props) {
			satisfying = append(satisfying, p)
		}
	}
	if len(satisfying) == 0 {
		return nil, fmt.Errorf("glue: veneering failed to satisfy %s for {%s}", req.Req, req.Tables.Key())
	}
	if g.KeepAll || req.All {
		return satisfying, nil
	}
	return []*plan.Node{CheapestOf(satisfying)}, nil
}

// ensurePlans returns plans for (tables, preds), creating them on a miss:
// single tables re-reference the top-most access STAR with the full
// predicate set (so index plans can exploit pushed join predicates rather
// than retrofitting a FILTER — Section 4.4); composites retrofit the
// missing predicates onto the enumerated entry.
func (g *Gluer) ensurePlans(tables expr.TableSet, preds expr.PredSet) ([]*plan.Node, error) {
	if plans := g.Table.Lookup(tables, preds); len(plans) > 0 {
		g.Stats.Hits++
		if g.Engine.Obs.Enabled() {
			g.Engine.Obs.Emit(obs.Event{Name: obs.EvGlueHit, A1: tables.Key(), N1: int64(len(plans))})
		}
		return plans, nil
	}
	g.Stats.Misses++
	if g.Engine.Obs.Enabled() {
		g.Engine.Obs.Emit(obs.Event{Name: obs.EvGlueMiss, A1: tables.Key()})
	}
	names := tables.Slice()
	if len(names) == 1 {
		q := names[0]
		cols := g.Engine.NeededCols(q)
		sap, err := g.Engine.EvalRule(AccessRootRule, []star.Value{
			star.StreamValue(tables),
			star.ColsValue(cols),
			star.PredsValue(preds),
		})
		if err != nil {
			return nil, fmt.Errorf("glue: access plans for %s: %w", q, err)
		}
		if len(sap) == 0 {
			return nil, fmt.Errorf("glue: no access plans for %s", q)
		}
		return g.Table.Insert(tables, preds, sap), nil
	}
	// Composite: the enumeration inserted plans under the eligible
	// predicate set; add the missing predicates as a FILTER veneer.
	base := g.Graph.EligibleWithin(tables)
	cands := g.Table.Lookup(tables, base)
	if len(cands) == 0 {
		return nil, fmt.Errorf("glue: no plans exist for composite {%s} (enumeration order violated?)", tables.Key())
	}
	missing := preds.Minus(base)
	var out []*plan.Node
	for _, c := range cands {
		f, err := g.addFilter(c, missing)
		if err != nil {
			return nil, err
		}
		out = append(out, f)
	}
	return g.Table.Insert(tables, preds, out), nil
}

// veneer augments one plan with Glue operators until it satisfies the
// requirements, applying any still-missing predicates of full above every
// materialization. It returns nil when the plan cannot be patched (which
// simply removes it from the candidate set).
func (g *Gluer) veneer(p *plan.Node, req plan.Reqd, full expr.PredSet) (*plan.Node, error) {
	cur := p
	// 1. Move to the required site (shipping first puts any temp at the
	// destination, as condition C1 of Section 4.3 intends).
	if req.Site != nil && cur.Props.Site != *req.Site {
		var err error
		cur, err = g.addVeneer(g.arenaNode(plan.Node{Op: plan.OpShip, Site: *req.Site, Inputs: []*plan.Node{cur}}))
		if err != nil {
			return nil, err
		}
	}
	// 2. Achieve the required order (before STORE, so the temp inherits
	// it).
	if len(req.Order) > 0 && !plan.OrderSatisfies(cur.Props.Order, req.Order) {
		var err error
		cur, err = g.addVeneer(g.arenaNode(plan.Node{Op: plan.OpSort, SortCols: req.Order, Inputs: []*plan.Node{cur}}))
		if err != nil {
			return nil, err
		}
	}
	// 3. Materialize when required.
	if (req.Temp || len(req.PathCols) > 0) && !cur.Props.Temp {
		var err error
		cur, err = g.addVeneer(g.arenaNode(plan.Node{Op: plan.OpStore, Table: g.Engine.NextTempName(), Inputs: []*plan.Node{cur}}))
		if err != nil {
			return nil, err
		}
	}
	// 4. Create the required index and probe it with the per-probe
	// predicates (Section 4.5.3).
	if len(req.PathCols) > 0 {
		var err error
		cur, err = g.dynamicIndex(cur, req.PathCols, full)
		if err != nil {
			return nil, err
		}
		if cur == nil {
			return nil, nil
		}
	}
	// 5. Any predicates of the target set the plan still has not applied
	// go above everything as a per-probe FILTER.
	missing := full.Minus(cur.Props.Preds())
	if !missing.Empty() {
		var err error
		cur, err = g.addFilter(cur, missing)
		if err != nil {
			return nil, err
		}
	}
	return cur, nil
}

// dynamicIndex ensures an index on ixCols exists on the materialized stream
// and replaces the stream with an index probe applying the matching pushed
// predicates.
func (g *Gluer) dynamicIndex(cur *plan.Node, ixCols []expr.ColID, full expr.PredSet) (*plan.Node, error) {
	if cur.Props.PathOn(ixCols) == nil {
		var err error
		cur, err = g.addVeneer(g.arenaNode(plan.Node{
			Op: plan.OpBuildIndex, Path: g.Engine.NextIndexName(),
			SortCols: ixCols, Inputs: []*plan.Node{cur},
		}))
		if err != nil {
			return nil, err
		}
	}
	path := cur.Props.PathOn(ixCols)
	missing := full.Minus(cur.Props.Preds())
	probePreds := expr.MatchIndexPrefix(missing, path.Cols)
	probe := g.arenaNode(plan.Node{
		Op: plan.OpAccess, Flavor: plan.FlavorIndex,
		Table: cur.Props.TempName, Path: path.Name,
		Cols:  cur.Props.Cols(), // interned and never mutated; sharing is safe
		Preds: probePreds, Inputs: []*plan.Node{cur},
	})
	return g.addVeneer(probe)
}

func (g *Gluer) addFilter(cur *plan.Node, preds expr.PredSet) (*plan.Node, error) {
	if preds.Empty() {
		return cur, nil
	}
	return g.addVeneer(g.arenaNode(plan.Node{Op: plan.OpFilter, Preds: preds, Inputs: []*plan.Node{cur}}))
}

// arenaNode allocates a veneer node from the optimization's arena.
func (g *Gluer) arenaNode(n plan.Node) *plan.Node {
	return g.Engine.Cost.Arena.NewNode(n)
}

func (g *Gluer) addVeneer(n *plan.Node) (*plan.Node, error) {
	if err := g.Engine.Cost.Price(n); err != nil {
		return nil, fmt.Errorf("glue: pricing %s veneer: %w", n.Op, err)
	}
	n.Origin = "Glue"
	g.Stats.Veneers++
	if g.Engine.Obs.Enabled() {
		g.inject(n.Op, 1)
		e := obs.Event{Name: obs.EvVeneer, A1: string(n.Op), A2: n.Fingerprint(), N1: 1,
			F1: n.Props.Cost.Total}
		if in := n.Outer(); in != nil {
			e.A3 = in.Fingerprint()
		}
		g.Engine.Obs.Emit(e)
	}
	return n, nil
}

// PlanSites implements the engine's PlanSites probe: the sites of existing
// plans, falling back to catalog placement for single tables.
func (g *Gluer) PlanSites(tables expr.TableSet) []string {
	if sites := g.Table.Sites(tables); len(sites) > 0 {
		return sites
	}
	names := tables.Slice()
	if len(names) == 1 {
		if q := g.Graph.Quant(names[0]); q != nil {
			return []string{g.Engine.Cost.Cat.SiteOf(q.Table)}
		}
	}
	return nil
}
