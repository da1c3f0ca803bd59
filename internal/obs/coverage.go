package obs

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// AltCoverage is the per-run fate of one STAR alternative. The optimizer
// returns one per alternative of the active repertoire on every observed
// run (opt.Result.Coverage), counted in typed counters during the run;
// coverage consumers (starburst cover, the serve ledger, starbench
// -coverage) read those values directly. Event renders the tally as an
// EvAltCoverage event for sinks that stream events.
type AltCoverage struct {
	// Rule is the STAR's name; Alt the 1-based alternative ordinal.
	Rule string
	Alt  int
	// Fired counts condition-held firings; Rejected condition failures.
	Fired, Rejected int64
	// Built is the number of plans the alternative's body produced.
	Built int64
	// Retained counts distinct plan nodes with this origin surviving in
	// the final plan table; Pruned counts dominance decisions against
	// plans with this origin; Winner counts distinct nodes with this
	// origin on the chosen plan's derivation chain.
	Retained, Pruned, Winner int64
	// PrunedBy attributes prune decisions to the dominating plan's origin
	// ("JMeth#2", "Glue", ...).
	PrunedBy map[string]int64
}

// Event renders the tallies into the flat Event shape.
func (c AltCoverage) Event() Event {
	return Event{
		Name: EvAltCoverage,
		A1:   c.Rule,
		N1:   int64(c.Alt),
		A2: fmt.Sprintf("fired=%d rejected=%d built=%d retained=%d pruned=%d winner=%d",
			c.Fired, c.Rejected, c.Built, c.Retained, c.Pruned, c.Winner),
		A3: packOrigins(c.PrunedBy),
	}
}

// VeneerCoverage is the per-run fate of one Glue veneer operator (SHIP,
// SORT, STORE, BUILDINDEX, ...); Event renders it as an EvVeneerCoverage
// event.
type VeneerCoverage struct {
	// Op is the LOLEPOP name.
	Op string
	// Injected counts veneer injections; Retained distinct surviving
	// veneer nodes of this operator; Winner those on the chosen chain.
	Injected, Retained, Winner int64
}

// Event renders the tallies into the flat Event shape.
func (c VeneerCoverage) Event() Event {
	return Event{
		Name: EvVeneerCoverage,
		A1:   c.Op,
		A2:   fmt.Sprintf("injected=%d retained=%d winner=%d", c.Injected, c.Retained, c.Winner),
	}
}

// packOrigins renders an origin->count attribution map deterministically
// (sorted by origin), so coverage events compare byte-equal across runs and
// parallelism levels. Empty and nil maps render as "".
func packOrigins(m map[string]int64) string {
	if len(m) == 0 {
		return ""
	}
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(k)
		b.WriteByte(':')
		b.WriteString(strconv.FormatInt(m[k], 10))
	}
	return b.String()
}
