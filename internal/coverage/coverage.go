// Package coverage turns the optimizer's coverage tallies into coverage
// reports over the alternative space: per STAR rule, alternative arm, and
// Glue veneer operator, how often it fired, how many plans it built, how
// many survived in the plan table, how many were pruned (and by whom), and
// whether it contributed to the winning plan — aggregated across a whole
// workload run.
//
// The paper's pitch is that strategy alternatives are inspectable data;
// PR 5's linter says a repertoire is *well-formed*, this package says it is
// *exercised*. An alternative that is lint-clean yet never fires across a
// representative workload is dead weight at best and an untested code path
// at worst — the cross-check with starcheck (CrossCheck) surfaces exactly
// those.
//
// Inputs are the typed coverage summaries the optimizer returns on every
// observed run (opt.Result.Coverage, fed to Add), or a saved provenance DAG
// for replay (AddDAG). The accumulator merges any number of runs; Report
// renders text, JSON (schema stars/coverage/v1), and an annotated
// per-rule-file source view. Ledger adds the serving-time view: rolling
// coverage plus a per-query-template Q-error digest fed by the executor's
// typed feedback rows (exec.Result.Feedback).
package coverage

import (
	"sort"
	"strconv"
	"strings"

	"stars/internal/obs"
	"stars/internal/opt"
	"stars/internal/provenance"
)

// altKey identifies one alternative arm.
type altKey struct {
	rule string
	alt  int
}

func (k altKey) String() string { return k.rule + "#" + strconv.Itoa(k.alt) }

// Accumulator aggregates per-alternative and per-veneer tallies across runs.
// The zero value is not usable; call NewAccumulator. Not safe for concurrent
// use (Ledger adds the locking a server needs).
type Accumulator struct {
	runs    int64
	alts    map[altKey]*obs.AltCoverage
	order   []altKey // first-seen order (repertoire order when fed by opt)
	veneers map[string]*obs.VeneerCoverage
	vorder  []string
}

// NewAccumulator returns an empty accumulator.
func NewAccumulator() *Accumulator {
	return &Accumulator{
		alts:    map[altKey]*obs.AltCoverage{},
		veneers: map[string]*obs.VeneerCoverage{},
	}
}

// Runs returns the number of optimization runs accumulated.
func (a *Accumulator) Runs() int64 { return a.runs }

// ensure returns the tally for one alternative, creating it at zero.
func (a *Accumulator) ensure(rule string, alt int) *obs.AltCoverage {
	k := altKey{rule, alt}
	c := a.alts[k]
	if c == nil {
		c = &obs.AltCoverage{Rule: rule, Alt: alt}
		a.alts[k] = c
		a.order = append(a.order, k)
	}
	return c
}

// ensureVeneer returns the tally for one veneer operator.
func (a *Accumulator) ensureVeneer(op string) *obs.VeneerCoverage {
	v := a.veneers[op]
	if v == nil {
		v = &obs.VeneerCoverage{Op: op}
		a.veneers[op] = v
		a.vorder = append(a.vorder, op)
	}
	return v
}

// addAlt folds one run's alternative summary into the aggregate.
func (a *Accumulator) addAlt(c obs.AltCoverage) {
	t := a.ensure(c.Rule, c.Alt)
	t.Fired += c.Fired
	t.Rejected += c.Rejected
	t.Built += c.Built
	t.Retained += c.Retained
	t.Pruned += c.Pruned
	t.Winner += c.Winner
	for origin, n := range c.PrunedBy {
		if t.PrunedBy == nil {
			t.PrunedBy = map[string]int64{}
		}
		t.PrunedBy[origin] += n
	}
}

// Add folds one optimization's coverage summary (opt.Result.Coverage) into
// the aggregate as one run. A nil summary (observability was off) adds
// nothing.
func (a *Accumulator) Add(cov *opt.Coverage) {
	if cov == nil {
		return
	}
	a.runs++
	for _, c := range cov.Alts {
		a.addAlt(c)
	}
	for _, c := range cov.Veneers {
		v := a.ensureVeneer(c.Op)
		v.Injected += c.Injected
		v.Retained += c.Retained
		v.Winner += c.Winner
	}
}

// AddDAG replays a saved provenance DAG (starburst -dag-out=....json) into
// the accumulator. A DAG records derived plans and rejections rather than
// firing counts, so the replayed tallies are the derived approximation:
// Built counts the alternative's plans in the DAG and stands in for Fired
// when deciding whether the arm was exercised.
func (a *Accumulator) AddDAG(dag *provenance.DAG) {
	if dag == nil {
		return
	}
	a.runs++
	fps := make([]string, 0, len(dag.Plans))
	for fp := range dag.Plans {
		fps = append(fps, fp)
	}
	sort.Strings(fps)
	for _, fp := range fps {
		p := dag.Plans[fp]
		if p.Veneer || p.Origin == "Glue" {
			v := a.ensureVeneer(veneerOp(p.Desc))
			v.Injected++
			if p.Retained {
				v.Retained++
			}
			if p.Best {
				v.Winner++
			}
			continue
		}
		rule, alt, ok := splitAltOrigin(p.Origin)
		if !ok {
			continue
		}
		t := a.ensure(rule, alt)
		t.Built++
		if p.Best {
			t.Winner++
		}
		if p.Retained {
			t.Retained++
		}
		if p.Status() == "pruned" {
			t.Pruned++
			dom := "?"
			if d := dag.Plans[p.PrunedBy]; d != nil && d.Origin != "" {
				dom = d.Origin
			}
			if t.PrunedBy == nil {
				t.PrunedBy = map[string]int64{}
			}
			t.PrunedBy[dom]++
		}
	}
	for _, r := range dag.Rejections {
		a.ensure(r.Rule, r.Alt).Rejected++
	}
}

// splitAltOrigin parses an Origin of the "Rule#alt" form.
func splitAltOrigin(origin string) (rule string, alt int, ok bool) {
	i := strings.LastIndexByte(origin, '#')
	if i <= 0 {
		return "", 0, false
	}
	n, err := strconv.Atoi(origin[i+1:])
	if err != nil || n <= 0 {
		return "", 0, false
	}
	return origin[:i], n, true
}

// veneerOp extracts the operator name from a veneer plan's description
// ("SHIP to=LA ..." -> "SHIP").
func veneerOp(desc string) string {
	for i := 0; i < len(desc); i++ {
		if c := desc[i]; c == ' ' || c == '(' {
			return desc[:i]
		}
	}
	return desc
}
