package flight

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"stars/internal/obs"
	"stars/internal/prof"
)

// IncidentSchema tags every incident bundle; bump on incompatible changes.
const IncidentSchema = "stars/incident/v1"

// CapturedOptions pins the optimizer knobs a request ran with, so a replay
// reconstructs the identical search. (Options.Prepare extension hooks are
// code, not data, and cannot be captured; the serving daemon runs the
// builtin repertoire, so this is complete for every serve request.)
type CapturedOptions struct {
	Parallelism       int     `json:"parallelism,omitempty"`
	JoinRoot          string  `json:"join_root,omitempty"`
	CartesianProducts bool    `json:"cartesian_products,omitempty"`
	NoCompositeInners bool    `json:"no_composite_inners,omitempty"`
	KeepAllGlue       bool    `json:"keep_all_glue,omitempty"`
	DisablePruning    bool    `json:"disable_pruning,omitempty"`
	WeightIO          float64 `json:"weight_io,omitempty"`
	WeightCPU         float64 `json:"weight_cpu,omitempty"`
	WeightMsg         float64 `json:"weight_msg,omitempty"`
	WeightByte        float64 `json:"weight_byte,omitempty"`
}

// Capture is the self-contained snapshot of one request's inputs and
// outputs: everything Replay needs to re-run the optimization elsewhere and
// everything a human needs to explain the decision.
type Capture struct {
	// SQL is the offending query; Template its normalized form.
	SQL      string `json:"sql"`
	Template string `json:"template"`
	// Rules is the rule set's star-syntax text (star.Format round-trip);
	// RulesHash its FNV-64 digest, matching Record.RulesHash.
	Rules     string `json:"rules,omitempty"`
	RulesHash string `json:"rules_hash,omitempty"`
	// Catalog is the catalog's JSON export at snapshot time;
	// CatalogEpoch its boot-time digest. An in-place stats mutation
	// leaves the epoch stale by design — that staleness is what lets the
	// watchdog call a fingerprint change a flip.
	Catalog      json.RawMessage `json:"catalog,omitempty"`
	CatalogEpoch string          `json:"catalog_epoch,omitempty"`
	// Options are the optimizer knobs the request ran with.
	Options CapturedOptions `json:"options"`
	// Events is the request's event trace in /events wire framing: the
	// optimizer's events re-derived at capture time, followed by the
	// executor's feedback rows for executed requests.
	Events []obs.WireEvent `json:"events,omitempty"`
	// Provenance is the derivation DAG (stars/provenance/v1);
	// ProvenanceChecksum its FNV-64a digest (provenance.DAG.Checksum),
	// the replay comparison's cheap first check.
	Provenance         json.RawMessage `json:"provenance,omitempty"`
	ProvenanceChecksum string          `json:"provenance_checksum,omitempty"`
	// Profile is the request's self-profile (stars/profile/v1 payload),
	// when profiling was on.
	Profile *prof.Profile `json:"profile,omitempty"`
}

// Incident is one watchdog firing, bundled for later debugging: the
// anomalous record, why it fired, the template's history context, the full
// capture, and the recent-request ring.
type Incident struct {
	Schema string `json:"schema"`
	// ID is "inc-<seq>-<kind>", unique within one daemon run.
	ID string `json:"id"`
	// Kind is the primary (highest-priority) trigger kind.
	Kind string    `json:"kind"`
	Time time.Time `json:"time"`
	// Record is the anomalous request's flight record.
	Record Record `json:"record"`
	// Triggers lists every watchdog rule that fired, priority order.
	Triggers []Trigger `json:"triggers"`
	// Prev is the latest earlier record of the template with the same SQL
	// text — the "before" of a plan flip.
	Prev *Record `json:"prev,omitempty"`
	// BaselineNS and Samples are the rolling latency baseline the record
	// was judged against.
	BaselineNS float64 `json:"baseline_ns,omitempty"`
	Samples    int     `json:"samples,omitempty"`
	// Capture is the self-contained replay bundle.
	Capture Capture `json:"capture"`
	// Ring is the recent-request ring at snapshot time, oldest first.
	Ring []Record `json:"ring,omitempty"`
}

// sortTriggers orders triggers by kind priority, stably.
func sortTriggers(ts []Trigger) []Trigger {
	out := make([]Trigger, 0, len(ts))
	for _, k := range Kinds {
		for _, t := range ts {
			if t.Kind == k {
				out = append(out, t)
			}
		}
	}
	return out
}

// File snapshots an incident from a triggering observation and its capture,
// appends it to the bounded in-memory store (evicting the oldest when
// full), and, when an incident directory is configured, writes
// <dir>/<id>.json. The write error, if any, is returned after the incident
// is stored — a full disk doesn't lose the in-memory copy. Nil-safe; a nil
// recorder or a trigger-free observation files nothing.
func (r *Recorder) File(o Observation, cap Capture) (*Incident, error) {
	if r == nil || len(o.Triggers) == 0 {
		return nil, nil
	}
	r.mu.Lock()
	r.incSeq++
	kind := o.Kind()
	inc := &Incident{
		Schema:     IncidentSchema,
		ID:         fmt.Sprintf("inc-%06d-%s", r.incSeq, kind),
		Kind:       kind,
		Time:       o.Record.Time,
		Record:     o.Record,
		Triggers:   sortTriggers(o.Triggers),
		Prev:       o.Prev,
		BaselineNS: o.BaselineNS,
		Samples:    o.Samples,
		Capture:    cap,
		Ring:       append([]Record(nil), r.ring...),
	}
	if len(r.incidents) == r.cfg.MaxIncidents {
		copy(r.incidents, r.incidents[1:])
		r.incidents = r.incidents[:len(r.incidents)-1]
		r.dropped++
	}
	r.incidents = append(r.incidents, inc)
	dir := r.cfg.IncidentDir
	r.mu.Unlock()

	if dir == "" {
		return inc, nil
	}
	if err := writeIncident(dir, inc); err != nil {
		r.mu.Lock()
		r.writeErrs++
		r.mu.Unlock()
		return inc, err
	}
	return inc, nil
}

// writeIncident persists one bundle as <dir>/<id>.json, creating the
// directory on first use.
func writeIncident(dir string, inc *Incident) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("flight: incident dir: %w", err)
	}
	b, err := MarshalIncident(inc)
	if err != nil {
		return err
	}
	path := filepath.Join(dir, inc.ID+".json")
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return fmt.Errorf("flight: writing incident: %w", err)
	}
	return nil
}

// MarshalIncident renders a bundle in its canonical form: two-space
// indented, trailing newline, fields in schema order. Fixed inputs and a
// fixed clock yield bit-identical bytes.
func MarshalIncident(inc *Incident) ([]byte, error) {
	b, err := json.MarshalIndent(inc, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("flight: encoding incident: %w", err)
	}
	return append(b, '\n'), nil
}

// Incidents returns the in-memory store, oldest first.
func (r *Recorder) Incidents() []*Incident {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]*Incident(nil), r.incidents...)
}

// Incident returns the stored incident with the given ID, or nil.
func (r *Recorder) Incident(id string) *Incident {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, inc := range r.incidents {
		if inc.ID == id {
			return inc
		}
	}
	return nil
}

// ReadIncident loads a bundle written by File (or MarshalIncident) and
// checks its schema tag.
func ReadIncident(path string) (*Incident, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("flight: reading incident: %w", err)
	}
	var inc Incident
	if err := json.Unmarshal(b, &inc); err != nil {
		return nil, fmt.Errorf("flight: decoding incident %s: %w", path, err)
	}
	if inc.Schema != IncidentSchema {
		return nil, fmt.Errorf("flight: %s: schema %q, want %q", path, inc.Schema, IncidentSchema)
	}
	return &inc, nil
}
