package serve

import (
	"fmt"
	"hash/fnv"
	"net/http"
	"time"

	"stars/internal/exec"
	"stars/internal/flight"
	"stars/internal/obs"
	"stars/internal/opt"
	"stars/internal/prof"
)

// fnvHex digests a string to the repository's standard 16-hex-digit FNV-64a
// form (the same shape as plan fingerprints and provenance checksums). The
// daemon uses it at boot to stamp the catalog epoch and rule-set hash every
// flight record carries.
func fnvHex(s string) string {
	h := fnv.New64a()
	h.Write([]byte(s))
	return fmt.Sprintf("%016x", h.Sum64())
}

// foldFlight folds one finished request into the flight recorder and, when
// the watchdog fires, snapshots an incident bundle. Called from the
// doLabeled defer once the request is final; no-op (and allocation-free)
// when recording is disabled.
func (s *Server) foldFlight(reqID, tmpl string, req OptimizeRequest, sink *obs.Sink,
	res *opt.Result, status int, wall time.Duration, executed bool, feedback []exec.Feedback) {
	if s.flight == nil {
		return
	}
	rec := flight.Record{
		Req: reqID, Template: tmpl, SQL: req.SQL, Status: status,
		WallNS: wall.Nanoseconds(), Parallelism: s.parallelism(),
	}
	if res != nil && res.Best != nil {
		rec.PlanFP = res.Best.Fingerprint()
		rec.EstCost = res.Best.Props.Cost.Total
		rec.EstRows = res.Best.Props.Card
	}
	if executed {
		rec.Executed = true
		for _, f := range feedback {
			rec.MaxQError = max(rec.MaxQError, f.QError)
		}
	}

	o := s.flight.Observe(rec)
	s.reg.Counter("flight_records_total").Add(1)
	if len(o.Triggers) == 0 {
		return
	}
	for _, t := range o.Triggers {
		s.reg.Counter(`flight_anomaly_total{kind="` + t.Kind + `"}`).Add(1)
		if t.Kind == flight.KindPlanFlip {
			s.reg.Counter("plan_flip_total").Add(1)
		}
	}
	inc, err := s.flight.File(o, s.captureRequest(reqID, req, tmpl, sink, feedback))
	if err != nil {
		s.reg.Counter("flight_incident_write_errors_total").Add(1)
		s.cfg.Log.Printf("flight: %v", err)
	}
	if inc != nil {
		s.reg.Counter("flight_incidents_total").Add(1)
		s.cfg.Log.Printf("flight: incident %s (%s): %s", inc.ID, inc.Kind, inc.Triggers[0].Detail)
	}
	st := s.flight.Stats()
	s.reg.Gauge("flight_templates").Set(int64(st.Templates))
	s.reg.Gauge("flight_incidents").Set(int64(st.Incidents))
}

// parallelism is the join-enumeration fan-out requests run with.
func (s *Server) parallelism() int {
	if p := s.cfg.Options.Parallelism; p != 0 {
		return p
	}
	return s.cfg.Parallelism
}

// captureRequest builds the self-contained replay bundle for one anomalous
// request: its SQL, the catalog as it stands right now (a stats mutation
// since boot is exactly what a plan-flip capture wants on record), the rule
// text, the options, and the request's self-profile. Plain requests keep
// no event log, so the event trace and the derivation DAG are re-derived
// here by re-optimizing those captured inputs (flight.Capture.Derive);
// an executed request's feedback rows follow the trace as exec.feedback
// events. Only runs on a watchdog trigger, so its cost is off the
// steady-state path.
func (s *Server) captureRequest(reqID string, req OptimizeRequest, tmpl string, sink *obs.Sink, feedback []exec.Feedback) flight.Capture {
	w := s.cfg.Options.Weights
	cap := flight.Capture{
		SQL:          req.SQL,
		Template:     tmpl,
		Rules:        s.rulesText,
		RulesHash:    s.rulesHash,
		CatalogEpoch: s.catalogEpoch,
		Options: flight.CapturedOptions{
			Parallelism:       s.parallelism(),
			JoinRoot:          s.cfg.Options.JoinRoot,
			CartesianProducts: s.cfg.Options.CartesianProducts,
			NoCompositeInners: s.cfg.Options.NoCompositeInners,
			KeepAllGlue:       s.cfg.Options.KeepAllGlue,
			DisablePruning:    s.cfg.Options.DisablePruning,
			WeightIO:          w.IO, WeightCPU: w.CPU, WeightMsg: w.Msg, WeightByte: w.Byte,
		},
		Profile: prof.FromSink(sink),
	}
	b, err := s.cfg.Catalog.MarshalJSONIndent()
	if err != nil {
		s.cfg.Log.Printf("flight: catalog capture: %v", err)
		return cap
	}
	cap.Catalog = b
	tail := make([]obs.Event, len(feedback))
	for i, f := range feedback {
		tail[i] = f.Event()
	}
	if err := cap.Derive(reqID, tail); err != nil {
		s.cfg.Log.Printf("flight: %v", err)
	}
	return cap
}

// incidentSummary is one row of the GET /incidents listing.
type incidentSummary struct {
	ID       string    `json:"id"`
	Kind     string    `json:"kind"`
	Time     time.Time `json:"time"`
	Req      string    `json:"req,omitempty"`
	Template string    `json:"template"`
	SQL      string    `json:"sql"`
	PlanFP   string    `json:"plan_fp,omitempty"`
	Detail   string    `json:"detail"`
}

// handleIncidents lists the in-memory incident store, oldest first.
func (s *Server) handleIncidents(w http.ResponseWriter, _ *http.Request) {
	incs := s.flight.Incidents()
	out := struct {
		Schema    string            `json:"schema"`
		Enabled   bool              `json:"enabled"`
		Count     int               `json:"count"`
		Incidents []incidentSummary `json:"incidents"`
	}{Schema: flight.IncidentSchema, Enabled: s.flight != nil, Incidents: []incidentSummary{}}
	for _, inc := range incs {
		row := incidentSummary{
			ID: inc.ID, Kind: inc.Kind, Time: inc.Time, Req: inc.Record.Req,
			Template: inc.Record.Template, SQL: inc.Record.SQL, PlanFP: inc.Record.PlanFP,
		}
		if len(inc.Triggers) > 0 {
			row.Detail = inc.Triggers[0].Detail
		}
		out.Incidents = append(out.Incidents, row)
	}
	out.Count = len(out.Incidents)
	s.writeJSON(w, http.StatusOK, out)
}

// handleIncident serves one full incident bundle in its canonical form —
// byte-identical to the file File writes to the incident directory.
func (s *Server) handleIncident(w http.ResponseWriter, r *http.Request) {
	inc := s.flight.Incident(r.PathValue("id"))
	if inc == nil {
		s.writeError(w, http.StatusNotFound, "", fmt.Errorf("no such incident %q", r.PathValue("id")))
		return
	}
	b, err := flight.MarshalIncident(inc)
	if err != nil {
		s.writeError(w, http.StatusInternalServerError, "", err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(b)
}

// handleDebugFlight renders the recorder's live state: configuration,
// census, per-template rolling baselines, and the recent-request ring.
func (s *Server) handleDebugFlight(w http.ResponseWriter, _ *http.Request) {
	out := struct {
		Schema       string                 `json:"schema"`
		Enabled      bool                   `json:"enabled"`
		CatalogEpoch string                 `json:"catalog_epoch,omitempty"`
		RulesHash    string                 `json:"rules_hash,omitempty"`
		IncidentDir  string                 `json:"incident_dir,omitempty"`
		Stats        flight.Stats           `json:"stats"`
		Templates    []flight.TemplateState `json:"templates"`
		Recent       []flight.Record        `json:"recent"`
	}{
		Schema:  "stars/flight/v1",
		Enabled: s.flight != nil,
	}
	if s.flight != nil {
		cfg := s.flight.Config()
		out.CatalogEpoch = cfg.CatalogEpoch
		out.RulesHash = cfg.RulesHash
		out.IncidentDir = cfg.IncidentDir
		out.Stats = s.flight.Stats()
		out.Templates = s.flight.Templates()
		out.Recent = s.flight.Recent()
	}
	if out.Templates == nil {
		out.Templates = []flight.TemplateState{}
	}
	if out.Recent == nil {
		out.Recent = []flight.Record{}
	}
	if out.Stats.ByKind == nil {
		out.Stats.ByKind = map[string]int64{}
	}
	s.writeJSON(w, http.StatusOK, out)
}
