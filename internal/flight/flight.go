// Package flight is the serving optimizer's flight recorder and
// plan-stability watchdog: an always-on, bounded memory of what the daemon
// recently decided, and an anomaly detector that snapshots a self-contained
// incident bundle the moment a decision looks wrong.
//
// The paper's rules-as-data thesis makes every plan change explainable — the
// derivation DAG names the alternative that fired — but an explanation is
// only useful if the moment is captured. The Recorder folds one compact
// Record per /optimize request into a global recent-request ring and a
// per-template rolling history; the watchdog compares each new record
// against its template's history and flags
//
//   - plan flips: the plan fingerprint changed although the SQL text, the
//     catalog-stats epoch, and the rule-set hash all stayed the same —
//     judged against the latest record of the template's history with
//     identical SQL, since two literals of one template legitimately plan
//     differently,
//   - latency outliers: wall time beyond LatencyFactor times the template's
//     rolling baseline (and above LatencyFloor, the noise gate), and
//   - Q-error blowups: an executed request whose worst per-operator
//     estimate-vs-actual Q-error reached QErrorThreshold.
//
// On a trigger the caller snapshots an Incident (schema stars/incident/v1):
// the offending request's SQL, catalog and rule text, event trace,
// provenance DAG, self-profile, and the recent-request ring for context —
// everything Replay needs to re-optimize the moment later, on another
// machine, and diff the result against what the daemon saw. The serving
// daemon keeps no event log for plain requests, so it re-derives the trace
// and the DAG at trigger time by re-optimizing the captured inputs — the
// same deterministic path Replay takes.
//
// Determinism is the contract: the clock is injectable, every method is
// nil-safe (a nil *Recorder records nothing at nil-check cost, keeping a
// disabled daemon's request path allocation-identical), and a fixed clock
// plus fixed inputs produce bit-identical incident bundles.
package flight

import (
	"fmt"
	"sync"
	"time"
)

// Kinds enumerates the watchdog's trigger kinds, in priority order: an
// incident caused by several triggers at once is filed under the first.
var Kinds = []string{KindPlanFlip, KindQError, KindLatency}

const (
	// KindPlanFlip: fingerprint changed for an unchanged
	// SQL text+catalog-epoch+rule-hash.
	KindPlanFlip = "plan_flip"
	// KindQError: an executed plan's worst operator Q-error reached the
	// threshold.
	KindQError = "qerror"
	// KindLatency: wall time beyond the template's rolling baseline.
	KindLatency = "latency"
)

// Config tunes the recorder and watchdog. The zero value is a sensible
// always-on default; fields are only consulted at construction.
type Config struct {
	// RingSize bounds the global recent-request ring (default 128).
	RingSize int
	// HistorySize bounds each template's rolling history (default 32).
	HistorySize int
	// MaxTemplates bounds the number of distinct templates tracked
	// (default 256); excess templates are recorded in the ring only.
	MaxTemplates int
	// MaxIncidents bounds the in-memory incident store (default 32);
	// the oldest incident is dropped when full.
	MaxIncidents int
	// IncidentDir, when non-empty, also writes every incident bundle to
	// <dir>/<id>.json.
	IncidentDir string
	// LatencyFactor flags a request slower than this multiple of its
	// template's rolling baseline (default 4).
	LatencyFactor float64
	// LatencyFloor is the absolute latency a request must also exceed to
	// be flagged — the noise gate for micro-queries (default 10ms).
	LatencyFloor time.Duration
	// MinSamples is the history size a template needs before latency
	// judgments begin (default 8). Plan-flip and Q-error detection start
	// from the second and first record respectively.
	MinSamples int
	// QErrorThreshold flags an executed request whose worst per-operator
	// Q-error reaches it (default 100).
	QErrorThreshold float64
	// CatalogEpoch and RulesHash stamp records that don't carry their
	// own — the serving daemon computes both once at boot.
	CatalogEpoch string
	RulesHash    string
	// Now is the clock (default time.Now); tests inject a fixed one to
	// make incident bundles bit-stable.
	Now func() time.Time
}

// withDefaults fills zero fields.
func (c Config) withDefaults() Config {
	if c.RingSize <= 0 {
		c.RingSize = 128
	}
	if c.HistorySize <= 0 {
		c.HistorySize = 32
	}
	if c.MaxTemplates <= 0 {
		c.MaxTemplates = 256
	}
	if c.MaxIncidents <= 0 {
		c.MaxIncidents = 32
	}
	if c.LatencyFactor <= 0 {
		c.LatencyFactor = 4
	}
	if c.LatencyFloor <= 0 {
		c.LatencyFloor = 10 * time.Millisecond
	}
	if c.MinSamples <= 0 {
		c.MinSamples = 8
	}
	if c.QErrorThreshold <= 0 {
		c.QErrorThreshold = 100
	}
	if c.Now == nil {
		c.Now = time.Now
	}
	return c
}

// Record is one request's compact flight-recorder entry.
type Record struct {
	// Seq is the recorder-assigned sequence number (1-based).
	Seq int64 `json:"seq"`
	// Time is the recorder clock's stamp at Observe.
	Time time.Time `json:"time"`
	// Req is the serving request id ("r17").
	Req string `json:"req,omitempty"`
	// Template is the normalized query template (coverage.Template).
	Template string `json:"template"`
	// SQL is the raw query text.
	SQL string `json:"sql"`
	// Status is the HTTP status the request answered with.
	Status int `json:"status"`
	// PlanFP is the chosen plan's stable fingerprint (empty on failures).
	PlanFP string `json:"plan_fp,omitempty"`
	// EstCost and EstRows are the optimizer's estimates for the chosen
	// plan.
	EstCost float64 `json:"est_cost,omitempty"`
	EstRows float64 `json:"est_rows,omitempty"`
	// WallNS is the request's wall-clock nanoseconds (optimize and, when
	// requested, execute).
	WallNS int64 `json:"wall_ns"`
	// Parallelism is the join-enumeration fan-out the request ran with.
	Parallelism int `json:"parallelism,omitempty"`
	// CatalogEpoch and RulesHash identify the inputs the plan depends on
	// besides the query; a flip is only a flip while both are unchanged.
	CatalogEpoch string `json:"catalog_epoch,omitempty"`
	RulesHash    string `json:"rules_hash,omitempty"`
	// Executed reports the plan ran; MaxQError is the worst per-operator
	// Q-error among the run's executor feedback rows.
	Executed  bool    `json:"executed,omitempty"`
	MaxQError float64 `json:"max_qerror,omitempty"`
}

// Trigger is one watchdog rule that fired on a record.
type Trigger struct {
	// Kind is KindPlanFlip, KindLatency, or KindQError.
	Kind string `json:"kind"`
	// Detail is the human-readable one-liner.
	Detail string `json:"detail"`
	// Observed and Threshold quantify the violation in the kind's unit
	// (latency: ns; qerror: Q-error; plan_flip: unused).
	Observed  float64 `json:"observed,omitempty"`
	Threshold float64 `json:"threshold,omitempty"`
	// BaselineNS and Samples describe the rolling baseline a latency
	// trigger compared against.
	BaselineNS float64 `json:"baseline_ns,omitempty"`
	Samples    int     `json:"samples,omitempty"`
	// PrevFP is the fingerprint the template previously planned to
	// (plan_flip only).
	PrevFP string `json:"prev_fp,omitempty"`
}

// Observation is Observe's result: the stamped record, the triggers that
// fired (nil when the record is unremarkable), and the history context an
// incident snapshot wants.
type Observation struct {
	Record   Record
	Triggers []Trigger
	// Prev is the latest successful record of the template's history with
	// the same SQL text (nil when there is none) — the "before" of a plan
	// flip.
	Prev *Record
	// BaselineNS and Samples are the template's rolling latency baseline
	// before this record was folded in.
	BaselineNS float64
	Samples    int
}

// Kind returns the observation's primary incident kind — the
// highest-priority trigger — or "" when nothing fired.
func (o *Observation) Kind() string {
	for _, k := range Kinds {
		for _, t := range o.Triggers {
			if t.Kind == k {
				return k
			}
		}
	}
	return ""
}

// history is one template's rolling record of successful optimizations.
type history struct {
	recs []Record // latest last, bounded by HistorySize
}

// baseline returns the mean wall latency over the history.
func (h *history) baseline() (ns float64, samples int) {
	if len(h.recs) == 0 {
		return 0, 0
	}
	var sum int64
	for _, r := range h.recs {
		sum += r.WallNS
	}
	return float64(sum) / float64(len(h.recs)), len(h.recs)
}

// Stats is a point-in-time census of the recorder for metrics and debug
// surfaces.
type Stats struct {
	Records   int64 `json:"records"`
	Templates int   `json:"templates"`
	Incidents int   `json:"incidents"`
	// ByKind counts anomaly triggers seen, per kind.
	ByKind map[string]int64 `json:"by_kind"`
	// IncidentsTotal counts incidents ever filed (the in-memory store is
	// bounded; this is not).
	IncidentsTotal int64 `json:"incidents_total"`
	// Dropped counts incidents evicted from the bounded store.
	Dropped int64 `json:"dropped"`
	// WriteErrors counts failed incident-file writes.
	WriteErrors int64 `json:"write_errors"`
}

// Recorder is the flight recorder: a bounded ring of recent requests, a
// per-template rolling history, the watchdog, and the bounded incident
// store. Safe for concurrent use; all methods are no-ops on nil.
type Recorder struct {
	cfg Config

	mu        sync.Mutex
	seq       int64
	ring      []Record // rolling, capacity cfg.RingSize, oldest first
	templates map[string]*history
	order     []string // template first-seen order, for deterministic debug output

	incSeq    int64
	incidents []*Incident // bounded by cfg.MaxIncidents, oldest first
	byKind    map[string]int64
	dropped   int64
	writeErrs int64
}

// New builds a recorder.
func New(cfg Config) *Recorder {
	cfg = cfg.withDefaults()
	return &Recorder{
		cfg:       cfg,
		templates: map[string]*history{},
		byKind:    map[string]int64{},
	}
}

// Config returns the recorder's effective (default-filled) configuration.
func (r *Recorder) Config() Config {
	if r == nil {
		return Config{}
	}
	return r.cfg
}

// Observe folds one request's record into the ring and its template's
// history, stamps Seq/Time (and CatalogEpoch/RulesHash when the caller left
// them empty), and runs the watchdog. Only successful optimizations
// (Status 200 with a plan fingerprint) enter the per-template history and
// are judged; failures still enter the ring for context. Nil-safe: a nil
// recorder returns a zero Observation and allocates nothing.
func (r *Recorder) Observe(rec Record) Observation {
	if r == nil {
		return Observation{}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.seq++
	rec.Seq = r.seq
	rec.Time = r.cfg.Now()
	if rec.CatalogEpoch == "" {
		rec.CatalogEpoch = r.cfg.CatalogEpoch
	}
	if rec.RulesHash == "" {
		rec.RulesHash = r.cfg.RulesHash
	}

	if len(r.ring) == r.cfg.RingSize {
		copy(r.ring, r.ring[1:])
		r.ring = r.ring[:len(r.ring)-1]
	}
	r.ring = append(r.ring, rec)

	out := Observation{Record: rec}
	if rec.Status != 200 || rec.PlanFP == "" {
		return out
	}

	h := r.templates[rec.Template]
	if h == nil {
		if len(r.templates) >= r.cfg.MaxTemplates {
			return out
		}
		h = &history{}
		r.templates[rec.Template] = h
		r.order = append(r.order, rec.Template)
	}
	for i := len(h.recs) - 1; i >= 0; i-- {
		if h.recs[i].SQL == rec.SQL {
			prev := h.recs[i]
			out.Prev = &prev
			break
		}
	}
	out.BaselineNS, out.Samples = h.baseline()

	// Watchdog. Judged against the history as it stood before this
	// record, so an anomaly can't raise its own bar. Only a same-SQL
	// predecessor can witness a flip: same inputs, different plan.
	if p := out.Prev; p != nil && p.PlanFP != rec.PlanFP &&
		p.CatalogEpoch == rec.CatalogEpoch && p.RulesHash == rec.RulesHash {
		out.Triggers = append(out.Triggers, Trigger{
			Kind:   KindPlanFlip,
			PrevFP: p.PlanFP,
			Detail: fmt.Sprintf("plan fingerprint flipped %s -> %s with catalog epoch %s and rules hash %s unchanged",
				p.PlanFP, rec.PlanFP, rec.CatalogEpoch, rec.RulesHash),
		})
	}
	if rec.Executed && rec.MaxQError >= r.cfg.QErrorThreshold {
		out.Triggers = append(out.Triggers, Trigger{
			Kind:      KindQError,
			Observed:  rec.MaxQError,
			Threshold: r.cfg.QErrorThreshold,
			Detail: fmt.Sprintf("worst per-operator Q-error %.1f reached threshold %.1f",
				rec.MaxQError, r.cfg.QErrorThreshold),
		})
	}
	if out.Samples >= r.cfg.MinSamples &&
		rec.WallNS > int64(r.cfg.LatencyFloor) &&
		float64(rec.WallNS) > r.cfg.LatencyFactor*out.BaselineNS {
		out.Triggers = append(out.Triggers, Trigger{
			Kind:       KindLatency,
			Observed:   float64(rec.WallNS),
			Threshold:  r.cfg.LatencyFactor * out.BaselineNS,
			BaselineNS: out.BaselineNS,
			Samples:    out.Samples,
			Detail: fmt.Sprintf("wall time %s exceeds %.1fx the rolling baseline %s (%d samples)",
				time.Duration(rec.WallNS), r.cfg.LatencyFactor,
				time.Duration(int64(out.BaselineNS)), out.Samples),
		})
	}
	for _, t := range out.Triggers {
		r.byKind[t.Kind]++
	}

	if len(h.recs) == r.cfg.HistorySize {
		copy(h.recs, h.recs[1:])
		h.recs = h.recs[:len(h.recs)-1]
	}
	h.recs = append(h.recs, rec)
	return out
}

// Recent returns a copy of the recent-request ring, oldest first.
func (r *Recorder) Recent() []Record {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Record(nil), r.ring...)
}

// Stats returns a census snapshot.
func (r *Recorder) Stats() Stats {
	if r == nil {
		return Stats{}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	s := Stats{
		Records:        r.seq,
		Templates:      len(r.templates),
		Incidents:      len(r.incidents),
		IncidentsTotal: r.incSeq,
		Dropped:        r.dropped,
		WriteErrors:    r.writeErrs,
		ByKind:         map[string]int64{},
	}
	for k, v := range r.byKind {
		s.ByKind[k] = v
	}
	return s
}

// TemplateState is one template's rolling view for GET /debug/flight.
type TemplateState struct {
	Template   string  `json:"template"`
	Requests   int     `json:"requests"` // history depth (bounded)
	PlanFP     string  `json:"plan_fp"`  // latest fingerprint
	BaselineNS float64 `json:"baseline_ns"`
	EstCost    float64 `json:"est_cost"`
}

// Templates renders the per-template histories in first-seen order.
func (r *Recorder) Templates() []TemplateState {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]TemplateState, 0, len(r.order))
	for _, tmpl := range r.order {
		h := r.templates[tmpl]
		if len(h.recs) == 0 {
			continue
		}
		last := h.recs[len(h.recs)-1]
		ns, n := h.baseline()
		out = append(out, TemplateState{
			Template: tmpl, Requests: n, PlanFP: last.PlanFP,
			BaselineNS: ns, EstCost: last.EstCost,
		})
	}
	return out
}
