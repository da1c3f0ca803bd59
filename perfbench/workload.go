package main

import (
	"fmt"
	"math"
	"math/rand"
	"strings"

	"stars/internal/catalog"
	"stars/internal/query"
	"stars/internal/workload"
)

// zipfS is the skew of the template mix: rank r is requested in
// proportion to (r+1)^-zipfS.
const zipfS = 1.1

// template is one served query shape: the catalog its daemon holds, how
// that daemon populates data, and a SQL renderer over a literal domain.
type template struct {
	name string
	cat  func() *catalog.Catalog
	// demo selects workload.PopulateEmpDept over workload.Populate, as
	// serve.Config.Demo does.
	demo bool
	// lits is the size of the literal domain; render accepts 0..lits-1.
	lits int
	// corpus marks literal 0 as rendering exactly the workload.Corpus()
	// query of the same name.
	corpus bool
	render func(lit int) string
}

// op is one request: a template and a literal of its domain.
type op struct {
	tmpl, lit int
}

// blockSize is the length of one stratified block of the template mix.
const blockSize = 100

// opGen yields one client's seeded request sequence. Templates come in
// blocks of blockSize that hold each template in its Zipf proportion, in a
// seeded shuffled order: every run then sees the same mix up to a partial
// block, so per-op figures do not drift with how often a seed happens to
// draw the rare, heavy templates. Literals are drawn uniformly.
type opGen struct {
	rng   *rand.Rand
	tmpls []template
	block []int
	pos   int
}

func newOpGen(seed int64, client int, tmpls []template) *opGen {
	g := &opGen{rng: rand.New(rand.NewSource(seed*1_000_003 + int64(client))), tmpls: tmpls}
	for t, n := range zipfCounts(len(tmpls), blockSize) {
		for i := 0; i < n; i++ {
			g.block = append(g.block, t)
		}
	}
	g.pos = len(g.block)
	return g
}

func (g *opGen) next() op {
	if g.pos == len(g.block) {
		g.rng.Shuffle(len(g.block), func(i, j int) { g.block[i], g.block[j] = g.block[j], g.block[i] })
		g.pos = 0
	}
	t := g.block[g.pos]
	g.pos++
	return op{tmpl: t, lit: g.rng.Intn(g.tmpls[t].lits)}
}

// zipfCounts splits size slots over n ranks in proportion to
// (rank+1)^-zipfS, by largest remainder, giving every rank at least one.
func zipfCounts(n, size int) []int {
	w := make([]float64, n)
	var total float64
	for r := range w {
		w[r] = math.Pow(float64(r+1), -zipfS)
		total += w[r]
	}
	counts := make([]int, n)
	rem := make([]float64, n)
	left := size
	for r := range w {
		exact := w[r] / total * float64(size)
		counts[r] = max(1, int(exact))
		rem[r] = exact - float64(counts[r])
		left -= counts[r]
	}
	for ; left > 0; left-- {
		best := 0
		for r := range rem {
			if rem[r] > rem[best] {
				best = r
			}
		}
		counts[best]++
		rem[best]--
	}
	return counts
}

// serveMixTemplates are the small corpus queries in corpus order, which is
// also their popularity rank. Literals: figure1 picks the manager (literal
// 0 is the corpus 'Haas'), chains and stars add a local range predicate on
// their first table (literal 0 adds none).
func serveMixTemplates() []template {
	ts := []template{
		{name: "figure1", cat: workload.EmpDept, demo: true, lits: 91, corpus: true, render: figure1MGR},
		{name: "figure1-dist", cat: workload.DistributedEmpDept, demo: true, lits: 91, corpus: true, render: figure1MGR},
	}
	for n := 2; n <= 5; n++ {
		ts = append(ts, template{
			name: fmt.Sprintf("chain%d", n), cat: func() *catalog.Catalog { return workload.ChainCatalog(n) },
			lits: 40, corpus: true,
			render: func(lit int) string { return chainSQL(n, rangePred("T1.ID", lit, 25)) },
		})
	}
	for _, k := range []int{3, 4} {
		ts = append(ts, template{
			name: fmt.Sprintf("star%d", k), cat: func() *catalog.Catalog { return workload.StarCatalog(k, 100000, 1000) },
			lits: 40, corpus: true,
			render: func(lit int) string { return starSQL(k, rangePred("F.ID", lit, 2500)) },
		})
	}
	return ts
}

// serveExecTemplates are selective queries whose results stay small enough
// to check row by row, in corpus order. Every literal carries its
// predicate.
func serveExecTemplates() []template {
	return []template{
		{name: "figure1", cat: workload.EmpDept, demo: true, lits: 40, render: figure1Name},
		{name: "figure1-dist", cat: workload.DistributedEmpDept, demo: true, lits: 40, render: figure1Name},
		{name: "chain2", cat: func() *catalog.Catalog { return workload.ChainCatalog(2) }, lits: 40,
			render: func(lit int) string { return chainSQL(2, rangePred("T1.ID", lit+1, 2)) }},
		{name: "chain3", cat: func() *catalog.Catalog { return workload.ChainCatalog(3) }, lits: 40,
			render: func(lit int) string { return chainSQL(3, fmt.Sprintf(" AND T1.ID = %d", lit*25+3)) }},
	}
}

// enumQuery is one enum-wide query: a wide join over its catalog, as the
// SQL the benchmark sends and as the workload graph it renders.
type enumQuery struct {
	name  string
	cat   *catalog.Catalog
	sql   string
	graph *query.Graph
}

// enumCatalogs builds the enum-wide rotation: chain8 over the starbench
// enumeration fixture's cardinalities (chain10 cycles them) and stars over
// a 100000-row fact table with 500-row dimensions.
func enumCatalogs() []enumQuery {
	cards := []int64{400, 150, 60, 200, 90, 500, 120, 80}
	return []enumQuery{
		{name: "chain8", cat: workload.ChainCatalog(8, cards...), sql: chainSQL(8, ""), graph: workload.ChainQuery(8)},
		{name: "chain10", cat: workload.ChainCatalog(10, cards...), sql: chainSQL(10, ""), graph: workload.ChainQuery(10)},
		{name: "star6", cat: workload.StarCatalog(6, 100000, 500), sql: starSQL(6, ""), graph: workload.StarQuery(6)},
		{name: "star7", cat: workload.StarCatalog(7, 100000, 500), sql: starSQL(7, ""), graph: workload.StarQuery(7)},
	}
}

// pinnedFingerprints are the chosen plans of every corpus-form query the
// benchmark issues, as the optimizer picked them when the benchmark was
// defined. Fingerprints are behaviour to keep: a drift fails the run.
var pinnedFingerprints = map[string]string{
	"figure1":      "c87ec6970861c568",
	"figure1-dist": "4b276bc4de5c18dc",
	"chain2":       "f8e646ec8e062589",
	"chain3":       "e9ffba55a2b6a8b5",
	"chain4":       "3804a90bf66f9704",
	"chain5":       "912ed0e61ac0a706",
	"star3":        "6eded9b1f6d85552",
	"star4":        "ba84d314453b1279",
	"chain8":       "2f116bd688a4fb74",
	"chain10":      "58ff4a7d811b360d",
	"star6":        "c186534e52bfab4e",
	"star7":        "42636f35a9a68ec2",
}

// rangePred renders " AND col < lit*step", or nothing for literal 0.
func rangePred(col string, lit, step int) string {
	if lit == 0 {
		return ""
	}
	return fmt.Sprintf(" AND %s < %d", col, lit*step)
}

// figure1MGR is Figure 1's query with the manager as the literal: 0 is the
// paper's 'Haas', i ≥ 1 the generated name mgr<i-1>.
func figure1MGR(lit int) string {
	mgr := "Haas"
	if lit > 0 {
		mgr = fmt.Sprintf("mgr%d", lit-1)
	}
	return "SELECT DEPT.DNO, DEPT.MGR, EMP.NAME, EMP.ADDRESS FROM DEPT, EMP " +
		"WHERE DEPT.DNO = EMP.DNO AND DEPT.MGR = '" + mgr + "'"
}

// figure1Name is Figure 1's join selecting one employee by name: EMP.NAME
// has no index, so every plan scans EMP. EMP comes first in FROM so the
// oracle's nested iteration binds the selective quantifier first.
func figure1Name(lit int) string {
	return fmt.Sprintf("SELECT DEPT.DNO, DEPT.MGR, EMP.NAME, EMP.ADDRESS FROM EMP, DEPT "+
		"WHERE DEPT.DNO = EMP.DNO AND EMP.NAME = 'name%d'", lit*250+7)
}

// chainSQL renders workload.ChainQuery(n) as SQL plus extra predicates.
func chainSQL(n int, extra string) string {
	sel := make([]string, n)
	from := make([]string, n)
	var preds []string
	for i := 1; i <= n; i++ {
		sel[i-1] = fmt.Sprintf("T%d.ID", i)
		from[i-1] = fmt.Sprintf("T%d", i)
		if i > 1 {
			preds = append(preds, fmt.Sprintf("T%d.K = T%d.J", i-1, i))
		}
	}
	return "SELECT " + strings.Join(sel, ", ") + " FROM " + strings.Join(from, ", ") +
		" WHERE " + strings.Join(preds, " AND ") + extra
}

// starSQL renders workload.StarQuery(k) as SQL plus extra predicates.
func starSQL(k int, extra string) string {
	sel := []string{"F.ID"}
	from := []string{"F"}
	var preds []string
	for i := 1; i <= k; i++ {
		sel = append(sel, fmt.Sprintf("D%d.ATTR", i))
		from = append(from, fmt.Sprintf("D%d", i))
		preds = append(preds, fmt.Sprintf("F.FK%d = D%d.ID", i, i))
	}
	return "SELECT " + strings.Join(sel, ", ") + " FROM " + strings.Join(from, ", ") +
		" WHERE " + strings.Join(preds, " AND ") + extra
}
