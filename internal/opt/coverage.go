package opt

import (
	"sort"
	"strconv"

	"stars/internal/glue"
	"stars/internal/obs"
	"stars/internal/plan"
	"stars/internal/star"
)

// Coverage is one optimization's coverage summary over the alternative
// space: the fate of every alternative of the active repertoire and of
// every Glue veneer operator seen. The tallies are a pure function of run
// state every parallelism level agrees on, so they are identical across
// Parallelism levels.
type Coverage struct {
	// Alts holds one tally per alternative of the repertoire — rules in
	// RuleSet.Names order, alternatives in definition order — including
	// never-exercised ones.
	Alts []obs.AltCoverage
	// Veneers holds one tally per Glue operator, sorted by name.
	Veneers []obs.VeneerCoverage
}

// collectCoverage assembles the run's coverage from the typed counters the
// engine (firings, rejections, built plans), the gluer (veneer injections),
// and the plan table (prune decisions by victim and dominator origin)
// filled during the run, plus a structure pass: every distinct plan node
// surviving in the final table (or on the chosen plan) counts once toward
// its origin's Retained, and the chosen plan's derivation chain counts
// toward Winner.
func collectCoverage(rules *star.RuleSet, en *star.Engine, gl *glue.Gluer, res *Result) *Coverage {
	tallies := en.AltTallies()
	// Exact capacity: byOrigin points into cov.Alts, which must not move.
	cov := &Coverage{Alts: make([]obs.AltCoverage, 0, len(tallies))}
	byOrigin := make(map[string]*obs.AltCoverage, len(tallies))
	for _, name := range rules.Names() {
		for i, alt := range rules.Get(name).Alts {
			t := tallies[len(cov.Alts)]
			cov.Alts = append(cov.Alts, obs.AltCoverage{Rule: name, Alt: i + 1,
				Fired: t.Fired, Rejected: t.Rejected, Built: t.Built})
			byOrigin[alt.Origin()] = &cov.Alts[len(cov.Alts)-1]
		}
	}
	veneers := map[string]*obs.VeneerCoverage{}
	veneer := func(op string) *obs.VeneerCoverage {
		v := veneers[op]
		if v == nil {
			v = &obs.VeneerCoverage{Op: op}
			veneers[op] = v
		}
		return v
	}
	for _, c := range gl.Injected {
		veneer(string(c.Op)).Injected += c.N
	}

	count := func(root *plan.Node, seen map[uint64]bool, alt func(*obs.AltCoverage), ven func(*obs.VeneerCoverage)) {
		var walk func(n *plan.Node)
		walk = func(n *plan.Node) {
			fp := n.FP64()
			if seen[fp] {
				return
			}
			seen[fp] = true
			if n.Origin == "Glue" {
				ven(veneer(string(n.Op)))
			} else if c := byOrigin[n.Origin]; c != nil {
				alt(c)
			}
			for _, in := range n.Inputs {
				walk(in)
			}
		}
		walk(root)
	}
	retained := map[uint64]bool{}
	markRetained := func(c *obs.AltCoverage) { c.Retained++ }
	markRetainedV := func(v *obs.VeneerCoverage) { v.Retained++ }
	if res.Table != nil {
		res.Table.ForEach(func(_, _ string, p *plan.Node) { count(p, retained, markRetained, markRetainedV) })
	}
	if res.Best != nil {
		count(res.Best, retained, markRetained, markRetainedV)
		count(res.Best, map[uint64]bool{},
			func(c *obs.AltCoverage) { c.Winner++ },
			func(v *obs.VeneerCoverage) { v.Winner++ })
	}

	// Prune attribution: the victim's origin takes the hit, the
	// dominator's origin is named (Q: which alternative keeps beating
	// this one). Veneer victims have no alternative to charge.
	if res.Table != nil {
		for k, n := range res.Table.Prunes {
			c := byOrigin[k.Victim]
			if c == nil {
				continue
			}
			c.Pruned += n
			dom := k.Dominator
			if dom == "" {
				dom = "?"
			}
			if c.PrunedBy == nil {
				c.PrunedBy = map[string]int64{}
			}
			c.PrunedBy[dom] += n
		}
	}

	ops := make([]string, 0, len(veneers))
	for op := range veneers {
		ops = append(ops, op)
	}
	sort.Strings(ops)
	for _, op := range ops {
		cov.Veneers = append(cov.Veneers, *veneers[op])
	}
	return cov
}

// publishCoverage reports a run's coverage into its sink: one
// opt.alt.coverage event per alternative and one opt.veneer.coverage event
// per veneer operator, rendered from the tallies only when the sink streams
// events (counted with Skip otherwise, so Len agrees either way), plus the
// coverage_* counters — zero-valued ones included, so aggregating
// registries expose the full series surface immediately.
func publishCoverage(sink *obs.Sink, cov *Coverage) {
	streams := sink.Streams()
	reg := sink.Registry()
	reg.Counter("coverage_runs_total").Add(1)
	for _, c := range cov.Alts {
		if streams {
			sink.Emit(c.Event())
		}
		labels := `{rule="` + c.Rule + `",alt="` + strconv.Itoa(c.Alt) + `"}`
		reg.Counter("coverage_alt_fired_total" + labels).Add(c.Fired)
		reg.Counter("coverage_alt_retained_total" + labels).Add(c.Retained)
		reg.Counter("coverage_alt_winner_total" + labels).Add(c.Winner)
	}
	for _, v := range cov.Veneers {
		if streams {
			sink.Emit(v.Event())
		}
		reg.Counter(`coverage_veneer_injected_total{op="` + v.Op + `"}`).Add(v.Injected)
	}
	if !streams {
		sink.Skip(int64(len(cov.Alts) + len(cov.Veneers)))
	}
}
