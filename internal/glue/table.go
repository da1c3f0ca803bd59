// Package glue implements the paper's Glue mechanism (Section 3.2): given a
// required set of properties for a stream, it (1) finds or creates plans for
// the required relational properties — referencing the top-most access STAR
// when none exist, (2) injects "veneer" Glue operators (SHIP, SORT, STORE,
// BUILDINDEX, FILTER) to make plans satisfy the required physical
// properties, and (3) returns the cheapest satisfying plan (or, optionally,
// all of them). Figure 3 of the paper is exactly this module's behaviour.
//
// The package also owns the plan table: the data structure, hashed on the
// tables and predicates (Section 4.4), that makes "do plans exist for these
// relational properties?" a dictionary lookup.
package glue

import (
	"sort"
	"time"

	"stars/internal/expr"
	"stars/internal/obs"
	"stars/internal/plan"
)

// entryKey addresses one plan-table entry: the table set's cached canonical
// key plus a 64-bit hash of the predicate set's canonical keys. Probing
// builds no strings — both components come off the sets unchanged.
type entryKey struct {
	tk string
	ph uint64
}

// entry is one (TABLES, PREDS) cell of the plan table. The predicate set is
// retained for exact verification (two distinct sets hashing alike chain via
// next); pk is the canonical predicate key, rendered once at entry creation
// for observability events and ForEach.
type entry struct {
	tables expr.TableSet
	preds  expr.PredSet
	pk     string
	plans  []*plan.Node
	next   *entry
}

// PlanTable stores every Set of Alternative Plans produced so far, keyed by
// (TABLES, PREDS) — the relational properties of Figure 2. Within one entry
// only non-dominated plans are retained: a plan survives unless some other
// plan is at least as cheap and offers every physical property it offers.
type PlanTable struct {
	entries  map[entryKey]*entry
	byTables map[string][]*entry // entries per table set, in creation order
	// Inserted counts insertion attempts; Pruned counts plans rejected or
	// evicted by dominance. PruneDisabled turns dominance off (ablation).
	Inserted      int64
	Pruned        int64
	PruneDisabled bool
	// Obs, when enabled, receives plantable.insert / plantable.prune
	// events, and turns on the Prunes tally.
	Obs *obs.Sink
	// Prunes tallies dominance decisions by the victim's and the
	// dominator's Origin — the typed counter behind coverage's pruned and
	// pruned-by attribution. Counted only while Obs is enabled; nil until
	// the first prune.
	Prunes map[PruneKey]int64

	// base, when non-nil, makes this table an overlay: reads fall through
	// to base (which must stay frozen while the overlay is live), writes
	// stay local, and dominance decisions consider base plans without
	// evicting them — eviction is deferred to Absorb, which replays the
	// overlay's writes into base in their original order. Overlays are the
	// unit of isolation of the parallel join enumeration: each subset task
	// writes into its own overlay over the committed smaller-subset
	// entries, and the driver absorbs overlays at the rank barrier in
	// ascending subset order, so the merged table is identical however the
	// tasks were scheduled.
	base *PlanTable
	// order is the append-only log of locally-created entries in
	// first-write order — the deterministic replay schedule Absorb follows.
	order []*entry
}

// PruneKey attributes one dominance decision: the Origin of the plan
// pruned and of the plan that dominated it.
type PruneKey struct {
	Victim, Dominator string
}

// NewPlanTable returns an empty plan table.
func NewPlanTable() *PlanTable {
	return &PlanTable{
		entries:  map[entryKey]*entry{},
		byTables: map[string][]*entry{},
	}
}

// NewOverlay returns an empty overlay table over base. The overlay inherits
// base's pruning mode but reports into its own Obs sink (set by the caller)
// and its own counters; Absorb folds both back.
func NewOverlay(base *PlanTable) *PlanTable {
	return &PlanTable{
		entries:       map[entryKey]*entry{},
		byTables:      map[string][]*entry{},
		base:          base,
		PruneDisabled: base.PruneDisabled,
	}
}

// find returns the verified entry for (tk, ph, preds) in this table alone
// (no base fall-through), or nil.
func (pt *PlanTable) find(tk string, ph uint64, preds expr.PredSet) *entry {
	for e := pt.entries[entryKey{tk: tk, ph: ph}]; e != nil; e = e.next {
		if e.preds.Equal(preds) {
			return e
		}
	}
	return nil
}

// ensure returns the entry for (tables, preds), creating it on first write.
func (pt *PlanTable) ensure(tables expr.TableSet, ph uint64, preds expr.PredSet) (*entry, bool) {
	tk := tables.Key()
	if e := pt.find(tk, ph, preds); e != nil {
		return e, false
	}
	e := &entry{tables: tables, preds: preds, pk: preds.Key()}
	k := entryKey{tk: tk, ph: ph}
	e.next = pt.entries[k]
	pt.entries[k] = e
	pt.byTables[tk] = append(pt.byTables[tk], e)
	return e, true
}

// Lookup returns the retained plans for exactly this table set and predicate
// set, or nil. The probe builds no strings: the table-set key is cached and
// the predicate set hashes by its cached per-predicate keys. On an overlay,
// base plans come first and local plans after — the same order a serial run
// would have accumulated them in, so cheapest-of tie-breaks stay
// deterministic.
func (pt *PlanTable) Lookup(tables expr.TableSet, preds expr.PredSet) []*plan.Node {
	tk := tables.Key()
	ph := preds.Hash64()
	var local []*plan.Node
	if e := pt.find(tk, ph, preds); e != nil {
		local = e.plans
	}
	if pt.base == nil {
		return local
	}
	var basePlans []*plan.Node
	if e := pt.base.find(tk, ph, preds); e != nil {
		basePlans = e.plans
	}
	if len(basePlans) == 0 {
		return local
	}
	if len(local) == 0 {
		return basePlans
	}
	out := make([]*plan.Node, 0, len(basePlans)+len(local))
	out = append(out, basePlans...)
	return append(out, local...)
}

// Insert adds plans to the (tables, preds) entry, pruning dominated ones,
// and returns the retained entry (on an overlay: the combined base + local
// view, matching what a serial run's entry would hold).
func (pt *PlanTable) Insert(tables expr.TableSet, preds expr.PredSet, plans []*plan.Node) []*plan.Node {
	var t0 time.Time
	profiled := pt.Obs.ProfEnabled()
	if profiled {
		t0 = time.Now()
	}
	ph := preds.Hash64()
	e, created := pt.ensure(tables, ph, preds)
	if created && pt.base != nil {
		pt.order = append(pt.order, e)
	}
	var baseEntry *entry
	if pt.base != nil {
		baseEntry = pt.base.find(tables.Key(), ph, preds)
	}
	for _, p := range plans {
		pt.Inserted++
		if pt.Obs.Enabled() {
			pt.Obs.Emit(obs.Event{Name: obs.EvPlanOffer, A1: tables.Key(),
				A2: p.Fingerprint(), A3: offerDetail(p),
				F1: p.Props.Cost.Total, F2: p.Props.Card})
		}
		pt.addPruned(e, baseEntry, p)
	}
	if pt.Obs.Enabled() {
		pt.Obs.Emit(obs.Event{Name: obs.EvPlanInsert, A1: tables.Key(), A2: e.pk,
			N1: int64(len(plans)), N2: int64(len(e.plans))})
	}
	if profiled {
		// One plantable_offer batch per Insert; the count is plans offered,
		// the duration covers their dominance scans.
		pt.Obs.ProfActivity(obs.ActOffer, time.Since(t0), int64(len(plans)))
	}
	if pt.base == nil {
		return e.plans
	}
	return pt.Lookup(tables, preds)
}

func (pt *PlanTable) addPruned(e *entry, baseEntry *entry, p *plan.Node) {
	var basePlans []*plan.Node
	if baseEntry != nil {
		basePlans = baseEntry.plans
	}
	if pt.PruneDisabled {
		for _, q := range basePlans {
			if q == p || q.FP64() == p.FP64() {
				return
			}
		}
		for _, q := range e.plans {
			if q == p || q.FP64() == p.FP64() {
				return
			}
		}
		e.plans = append(e.plans, p)
		return
	}
	// Base plans are scanned first (they were retained first, exactly as in
	// a serial run) and may reject the incoming plan, but are never evicted
	// here: an overlay must not mutate its shared, frozen base. A base plan
	// the incoming plan dominates is evicted later, when Absorb replays
	// this write into the base on the barrier goroutine.
	for _, q := range basePlans {
		if q == p {
			return
		}
		if plan.Dominates(q.Props, p.Props) {
			pt.Pruned++
			pt.emitPrune(e.tables.Key(), p, q, 0)
			return
		}
	}
	for _, q := range e.plans {
		if q == p {
			return
		}
		if plan.Dominates(q.Props, p.Props) {
			pt.Pruned++
			pt.emitPrune(e.tables.Key(), p, q, 0) // incoming p rejected, dominated by existing q
			return
		}
	}
	out := e.plans[:0]
	for _, q := range e.plans {
		if plan.Dominates(p.Props, q.Props) {
			pt.Pruned++
			pt.emitPrune(e.tables.Key(), q, p, 1) // existing q evicted by incoming p
			continue
		}
		out = append(out, q)
	}
	e.plans = append(out, p)
}

// Absorb replays an overlay's locally-retained plans into pt, walking the
// overlay's append-only entry log in first-write order, and folds its churn
// counters. Replay goes through the normal Insert path on the calling
// goroutine, so decisions an overlay had to defer — a task's plan evicting a
// base plan it dominates, or two tasks' equivalent veneers for a shared
// subset pruning one another — are made here, with the usual
// offer/insert/prune events going to pt.Obs. Absorbing a rank's overlays in
// ascending subset order therefore yields a table whose contents are
// independent of how the tasks were scheduled. Identity memos of every plan
// in a touched entry are populated before returning, so subsequent
// concurrent readers of pt never race on the lazy memoization.
func (pt *PlanTable) Absorb(o *PlanTable) {
	var t0 time.Time
	profiled := pt.Obs.ProfEnabled()
	if profiled {
		t0 = time.Now()
	}
	full := pt.Obs.Enabled() || pt.PruneDisabled
	for _, oe := range o.order {
		if len(oe.plans) == 0 {
			continue
		}
		pt.Insert(oe.tables, oe.preds, oe.plans)
		if e := pt.find(oe.tables.Key(), oe.preds.Hash64(), oe.preds); e != nil {
			memoizePlans(e.plans, full)
		}
	}
	pt.Inserted += o.Inserted
	pt.Pruned += o.Pruned
	for k, n := range o.Prunes {
		pt.countPrune(k, n)
	}
	if profiled {
		// The absorb meter overlaps plantable_offer: replaying an overlay
		// goes through Insert, which times its own offers too.
		pt.Obs.ProfActivity(obs.ActAbsorb, time.Since(t0), 1)
	}
}

// memoizePlans populates the lazy identity memos workers may read
// concurrently: the 64-bit structural hash always (the rule engine's
// duplicate check), and the full Key/Fingerprint strings only when something
// will render them from a worker (observability events, or the
// pruning-disabled duplicate scan's diagnostics).
func memoizePlans(plans []*plan.Node, full bool) {
	for _, p := range plans {
		if full {
			p.Fingerprint()
		} else {
			p.FP64()
		}
	}
}

// MemoizeIdentities precomputes every retained plan's identity memos. The
// optimizer calls it before fanning readers of the table out to worker
// goroutines: plan.Node memoizes lazily, which is a write, and must happen
// while the table is still single-threaded.
func (pt *PlanTable) MemoizeIdentities() {
	full := pt.Obs.Enabled() || pt.PruneDisabled
	pt.ForEach(func(_, _ string, p *plan.Node) {
		if full {
			p.Fingerprint()
		} else {
			p.FP64()
		}
	})
}

// emitPrune records one dominance decision with the identity and cost of
// both the victim and the dominator — the forensic record provenance.WhyNot
// answers from. direction is 0 when the incoming plan was rejected, 1 when
// an existing plan was evicted.
func (pt *PlanTable) emitPrune(tk string, victim, dominator *plan.Node, direction int64) {
	if !pt.Obs.Enabled() {
		return
	}
	pt.countPrune(PruneKey{Victim: victim.Origin, Dominator: dominator.Origin}, 1)
	pt.Obs.Emit(obs.Event{Name: obs.EvPlanPrune, A1: tk, N1: direction,
		A2: victim.Fingerprint(), A3: dominator.Fingerprint(),
		F1: victim.Props.Cost.Total, F2: dominator.Props.Cost.Total})
}

func (pt *PlanTable) countPrune(k PruneKey, n int64) {
	if pt.Prunes == nil {
		pt.Prunes = map[PruneKey]int64{}
	}
	pt.Prunes[k] += n
}

// offerDetail renders the origin and operator of an offered plan for the
// plantable.offer event ("JMeth#2 JOIN(MG)").
func offerDetail(p *plan.Node) string {
	origin := p.Origin
	if origin == "" {
		origin = "?"
	}
	head := string(p.Op)
	if p.Flavor != "" {
		head += "(" + p.Flavor + ")"
	}
	return origin + " " + head
}

// ForEach visits every retained plan, keyed by table-set and predicate key,
// in unspecified order — provenance walks the final population through it.
// On an overlay, base plans are visited too.
func (pt *PlanTable) ForEach(fn func(tablesKey, predsKey string, p *plan.Node)) {
	if pt.base != nil {
		pt.base.ForEach(fn)
	}
	for tk, es := range pt.byTables {
		for _, e := range es {
			for _, p := range e.plans {
				fn(tk, e.pk, p)
			}
		}
	}
}

// HasEntry reports whether any plan is stored for the table set, without
// materializing the combined entry — the enumeration's joinability probe.
func (pt *PlanTable) HasEntry(tables expr.TableSet) bool {
	if pt.base != nil && pt.base.HasEntry(tables) {
		return true
	}
	for _, e := range pt.byTables[tables.Key()] {
		if len(e.plans) > 0 {
			return true
		}
	}
	return false
}

// Entry returns every plan stored for the table set across all predicate
// keys (on an overlay: base entries first, then local ones).
func (pt *PlanTable) Entry(tables expr.TableSet) []*plan.Node {
	var out []*plan.Node
	if pt.base != nil {
		out = pt.base.Entry(tables)
	}
	for _, e := range pt.byTables[tables.Key()] {
		out = append(out, e.plans...)
	}
	return out
}

// Sites returns the distinct sites at which plans for the table set exist,
// sorted — the siteDiffers condition's probe.
func (pt *PlanTable) Sites(tables expr.TableSet) []string {
	seen := map[string]bool{}
	for _, p := range pt.Entry(tables) {
		seen[p.Props.Site] = true
	}
	out := make([]string, 0, len(seen))
	for s := range seen {
		out = append(out, s)
	}
	sort.Strings(out)
	return out
}

// Best returns the cheapest plan across every predicate key of the table
// set, or nil.
func (pt *PlanTable) Best(tables expr.TableSet) *plan.Node {
	var best *plan.Node
	for _, p := range pt.Entry(tables) {
		if best == nil || p.Props.Cost.Total < best.Props.Cost.Total {
			best = p
		}
	}
	return best
}

// Size returns the total number of retained plans (including base plans on
// an overlay).
func (pt *PlanTable) Size() int {
	n := 0
	if pt.base != nil {
		n = pt.base.Size()
	}
	for _, es := range pt.byTables {
		for _, e := range es {
			n += len(e.plans)
		}
	}
	return n
}

// CheapestOf returns the minimum-cost plan of a slice, or nil.
func CheapestOf(plans []*plan.Node) *plan.Node {
	var best *plan.Node
	for _, p := range plans {
		if best == nil || p.Props.Cost.Total < best.Props.Cost.Total {
			best = p
		}
	}
	return best
}
