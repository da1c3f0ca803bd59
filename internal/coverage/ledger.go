package coverage

import (
	"math"
	"sort"
	"strings"
	"sync"

	"stars/internal/exec"
	"stars/internal/obs"
	"stars/internal/opt"
	"stars/internal/star"
)

// Template normalizes a SQL text to its query template: whitespace is
// collapsed, string and numeric literals are replaced with '?', and runs of
// '?' separated by commas (the shape an IN-list leaves behind) collapse to a
// single '?', so "SELECT ... WHERE SAL > 100" and "... > 250" — and
// "DNO IN (1,2)" and "DNO IN (1,2,3)" — land in the same ledger bucket.
// Identifiers and keywords are left as written.
func Template(sql string) string {
	var b strings.Builder
	b.Grow(len(sql))
	space := false    // a pending collapsed space
	wrote := false    // anything emitted yet (suppresses leading space)
	prevWord := false // previous emitted rune is part of an identifier
	for i := 0; i < len(sql); i++ {
		c := sql[i]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r' || c == '\v' || c == '\f':
			space = wrote
			prevWord = false // whitespace ends an identifier
			continue
		case c == '\'':
			// String literal, '' escaping included.
			j := i + 1
			for j < len(sql) {
				if sql[j] == '\'' {
					if j+1 < len(sql) && sql[j+1] == '\'' {
						j += 2
						continue
					}
					break
				}
				j++
			}
			i = j
			c = '?'
		case c >= '0' && c <= '9' && !prevWord:
			// Numeric literal (not a digit inside an identifier like T1).
			j := i
			for j+1 < len(sql) {
				d := sql[j+1]
				if (d >= '0' && d <= '9') || d == '.' {
					j++
					continue
				}
				break
			}
			i = j
			c = '?'
		}
		if space {
			b.WriteByte(' ')
			space = false
		}
		b.WriteByte(c)
		wrote = true
		prevWord = c == '_' || c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9'
	}
	return collapseParamList(strings.TrimSuffix(b.String(), ";"))
}

// collapseParamList rewrites runs of '?' parameters separated by commas
// (and optional spaces) into a single '?'. After literal normalization an
// IN-list is exactly such a run, so IN (1,2) and IN (1, 2, 3) share one
// template regardless of arity. A run with no comma — "? ?" — is left
// alone; that shape is not a list. The substring pre-checks keep the
// common no-list case allocation-free.
func collapseParamList(t string) string {
	if !strings.Contains(t, "?,") && !strings.Contains(t, "? ,") {
		return t
	}
	var b strings.Builder
	b.Grow(len(t))
	for i := 0; i < len(t); i++ {
		b.WriteByte(t[i])
		if t[i] != '?' {
			continue
		}
		// Swallow every ", ?" continuation of the run.
		j := i
		for {
			k := j + 1
			comma := false
			for k < len(t) && (t[k] == ' ' || t[k] == ',') {
				comma = comma || t[k] == ','
				k++
			}
			if comma && k < len(t) && t[k] == '?' {
				j = k
				continue
			}
			break
		}
		i = j
	}
	return b.String()
}

// qerrBounds are the Sketch's fixed bucket upper bounds. Q-errors are >= 1
// by construction; the resolution is finest near 1 (good estimates) and
// coarsens toward the tail, which is what estimation-quality triage needs.
var qerrBounds = []float64{1, 1.1, 1.2, 1.35, 1.5, 1.75, 2, 2.5, 3, 4, 5, 7.5, 10, 15, 25, 50, 100, 1000}

// Sketch is a fixed-bucket digest of Q-error observations supporting
// approximate quantiles. The zero value is ready to use. Not safe for
// concurrent use (the Ledger serializes access).
type Sketch struct {
	counts []int64 // len(qerrBounds)+1, last bucket is the overflow
	n      int64
	max    float64
}

// Observe folds one Q-error into the digest.
func (s *Sketch) Observe(q float64) {
	if math.IsNaN(q) {
		return
	}
	if s.counts == nil {
		s.counts = make([]int64, len(qerrBounds)+1)
	}
	if q < 1 {
		q = 1
	}
	i := sort.SearchFloat64s(qerrBounds, q) // first bound >= q
	s.counts[i]++
	s.n++
	if q > s.max {
		s.max = q
	}
}

// N returns the observation count.
func (s *Sketch) N() int64 { return s.n }

// Max returns the largest observed Q-error (0 when empty).
func (s *Sketch) Max() float64 { return s.max }

// Quantile returns the upper bound of the bucket holding the p-quantile
// (0 < p <= 1), clamped to the observed maximum; 0 when empty.
func (s *Sketch) Quantile(p float64) float64 {
	if s.n == 0 {
		return 0
	}
	rank := int64(math.Ceil(p * float64(s.n)))
	if rank < 1 {
		rank = 1
	}
	var cum int64
	for i, c := range s.counts {
		cum += c
		if cum >= rank {
			bound := s.max
			if i < len(qerrBounds) {
				bound = qerrBounds[i]
			}
			return math.Min(bound, s.max)
		}
	}
	return s.max
}

// QErrorDigest is a Sketch rendered for reports.
type QErrorDigest struct {
	Count int64   `json:"count"`
	Max   float64 `json:"max"`
	P50   float64 `json:"p50"`
	P90   float64 `json:"p90"`
	P99   float64 `json:"p99"`
}

// Digest renders the sketch, nil when it holds no observations.
func (s *Sketch) Digest() *QErrorDigest {
	if s.n == 0 {
		return nil
	}
	return &QErrorDigest{
		Count: s.n, Max: s.max,
		P50: s.Quantile(0.50), P90: s.Quantile(0.90), P99: s.Quantile(0.99),
	}
}

// opFeedback aggregates executor feedback rows for one plan operator
// within a template.
type opFeedback struct {
	op   string
	fp   string
	n    int64
	est  float64
	act  float64
	maxQ float64
}

// templateStats is one query template's ledger entry.
type templateStats struct {
	requests   int64
	executions int64
	qerr       Sketch
	ops        map[string]*opFeedback
	opOrder    []string
}

// maxLedgerOps bounds the per-template operator map: plans are small, so
// the bound only guards against fingerprint churn.
const maxLedgerOps = 64

// Ledger is the serving-time rolling view: coverage accumulated over every
// optimized request plus a per-query-template Q-error digest fed by the
// feedback rows an execute+analyze request's executor returns. Safe for
// concurrent use. Templates are bounded; once full, new templates fold into
// the aggregate only.
type Ledger struct {
	mu           sync.Mutex
	acc          *Accumulator
	requests     int64
	all          Sketch
	maxTemplates int
	templates    map[string]*templateStats
	order        []string
}

// NewLedger returns a ledger tracking at most maxTemplates distinct query
// templates (<= 0 means 128).
func NewLedger(maxTemplates int) *Ledger {
	if maxTemplates <= 0 {
		maxTemplates = 128
	}
	return &Ledger{
		acc:          NewAccumulator(),
		maxTemplates: maxTemplates,
		templates:    map[string]*templateStats{},
	}
}

// Record folds one request into the ledger under the given template
// (normalize with Template): its coverage summary (nil when the request
// failed before optimizing) updates the rolling accumulator, and its
// executor feedback rows (nil unless executed with per-operator actuals)
// update the template's and the aggregate Q-error digests.
func (l *Ledger) Record(template string, cov *opt.Coverage, feedback []exec.Feedback) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.requests++
	l.acc.Add(cov)

	t := l.templates[template]
	if t == nil && len(l.templates) < l.maxTemplates {
		t = &templateStats{ops: map[string]*opFeedback{}}
		l.templates[template] = t
		l.order = append(l.order, template)
	}
	if t != nil {
		t.requests++
	}
	for _, f := range feedback {
		l.all.Observe(f.QError)
		if t == nil {
			continue
		}
		t.qerr.Observe(f.QError)
		of := t.ops[f.Fingerprint]
		if of == nil {
			if len(t.ops) >= maxLedgerOps {
				continue
			}
			of = &opFeedback{op: f.Op, fp: f.Fingerprint}
			t.ops[f.Fingerprint] = of
			t.opOrder = append(t.opOrder, f.Fingerprint)
		}
		of.n++
		of.est = f.Est
		opens := f.Loops
		if opens < 1 {
			opens = 1
		}
		of.act = float64(f.Rows) / float64(opens)
		if f.QError > of.maxQ {
			of.maxQ = f.QError
		}
	}
	if t != nil && len(feedback) > 0 {
		t.executions++
	}
}

// LedgerReport is the ledger rendered for GET /coverage, JSON-ready.
type LedgerReport struct {
	Schema    string           `json:"schema"`
	Requests  int64            `json:"requests"`
	QError    *QErrorDigest    `json:"qerror,omitempty"`
	Coverage  *Report          `json:"coverage"`
	Templates []TemplateReport `json:"templates"`
}

// TemplateReport is one query template's ledger entry, rendered.
type TemplateReport struct {
	Template   string        `json:"template"`
	Requests   int64         `json:"requests"`
	Executions int64         `json:"executions"`
	QError     *QErrorDigest `json:"qerror,omitempty"`
	Ops        []OpReport    `json:"ops,omitempty"`
}

// OpReport is one plan operator's estimate-vs-actual record.
type OpReport struct {
	Op            string  `json:"op"`
	Fingerprint   string  `json:"fp"`
	Count         int64   `json:"count"`
	EstimatedRows float64 `json:"estimated_rows"`
	ActualRows    float64 `json:"actual_rows"`
	MaxQError     float64 `json:"max_qerror"`
}

// Snapshot renders the ledger. rs, when non-nil, defines the coverage
// universe (the server passes its effective rule set so never-exercised
// alternatives show up).
func (l *Ledger) Snapshot(rs *star.RuleSet) *LedgerReport {
	l.mu.Lock()
	defer l.mu.Unlock()
	rep := &LedgerReport{
		Schema:    SchemaV1,
		Requests:  l.requests,
		QError:    l.all.Digest(),
		Coverage:  l.acc.Report(rs),
		Templates: []TemplateReport{},
	}
	for _, tmpl := range l.order {
		t := l.templates[tmpl]
		tr := TemplateReport{
			Template: tmpl, Requests: t.requests, Executions: t.executions,
			QError: t.qerr.Digest(),
		}
		for _, fp := range t.opOrder {
			of := t.ops[fp]
			tr.Ops = append(tr.Ops, OpReport{
				Op: of.op, Fingerprint: of.fp, Count: of.n,
				EstimatedRows: of.est, ActualRows: of.act, MaxQError: of.maxQ,
			})
		}
		rep.Templates = append(rep.Templates, tr)
	}
	return rep
}

// PublishMetrics refreshes the registry's coverage and Q-error gauges from
// the ledger's current state: coverage_alternatives{,_exercised} (int
// gauges), coverage_ratio (0..1 float gauge), and qerror_p50/p90/p99/max
// float gauges. Counters (coverage_*_total, qerror_observations_total) are
// cumulative and flow through the per-request registry merge instead.
func (l *Ledger) PublishMetrics(reg *obs.Registry, rs *star.RuleSet) {
	l.mu.Lock()
	defer l.mu.Unlock()
	total, exercised := l.acc.counts(rs)
	reg.Gauge("coverage_alternatives").Set(int64(total))
	reg.Gauge("coverage_alternatives_exercised").Set(int64(exercised))
	ratio := 1.0
	if total > 0 {
		ratio = float64(exercised) / float64(total)
	}
	reg.FloatGauge("coverage_ratio").Set(ratio)
	reg.FloatGauge("qerror_p50").Set(l.all.Quantile(0.50))
	reg.FloatGauge("qerror_p90").Set(l.all.Quantile(0.90))
	reg.FloatGauge("qerror_p99").Set(l.all.Quantile(0.99))
	reg.FloatGauge("qerror_max").Set(l.all.Max())
}

// counts sizes the alternative space (universe rs when non-nil, else the
// accumulated set) and the exercised portion.
func (a *Accumulator) counts(rs *star.RuleSet) (total, exercised int) {
	exercisedKey := func(k altKey) bool {
		c := a.alts[k]
		return c != nil && (c.Fired > 0 || c.Built > 0)
	}
	if rs == nil {
		for _, k := range a.order {
			total++
			if exercisedKey(k) {
				exercised++
			}
		}
		return total, exercised
	}
	covered := map[altKey]bool{}
	for _, name := range rs.Names() {
		r := rs.Get(name)
		for i := range r.Alts {
			k := altKey{name, i + 1}
			covered[k] = true
			total++
			if exercisedKey(k) {
				exercised++
			}
		}
	}
	for _, k := range a.order {
		if !covered[k] {
			total++
			if exercisedKey(k) {
				exercised++
			}
		}
	}
	return total, exercised
}
