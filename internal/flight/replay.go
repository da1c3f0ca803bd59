package flight

import (
	"bytes"
	"fmt"

	"stars/internal/catalog"
	"stars/internal/cost"
	"stars/internal/obs"
	"stars/internal/opt"
	"stars/internal/provenance"
	"stars/internal/sqlparse"
	"stars/internal/star"
)

// ReplayResult compares a fresh optimization of an incident's captured
// inputs against what the daemon saw at capture time — time-travel
// debugging for the optimizer.
type ReplayResult struct {
	// Fingerprint is the replayed best plan's fingerprint; CapturedFP the
	// one the incident recorded. When they differ, the environment (code
	// version, extensions) changed between capture and replay.
	Fingerprint string
	CapturedFP  string
	// Checksum and CapturedChecksum digest the two provenance DAGs;
	// Identical reports them byte-equal.
	Checksum         string
	CapturedChecksum string
	Identical        bool
	// Diff details the divergence when the DAGs differ and the capture
	// embedded one (nil otherwise).
	Diff *provenance.DiffReport
	// DAG is the replayed derivation DAG, for export.
	DAG *provenance.DAG
	// Result is the fresh optimization, for inspection.
	Result *opt.Result
}

// FingerprintMatch reports whether the replay chose the captured plan.
func (r *ReplayResult) FingerprintMatch() bool {
	return r.CapturedFP != "" && r.Fingerprint == r.CapturedFP
}

// Replay re-optimizes an incident's captured query from its captured
// catalog, rules, and options, rebuilds the derivation DAG, and diffs it
// against the captured one. The incident must carry a catalog and rules
// text (serve-filed bundles always do).
func Replay(inc *Incident) (*ReplayResult, error) {
	if inc == nil {
		return nil, fmt.Errorf("flight: replay: nil incident")
	}
	cap := inc.Capture
	res, err := cap.optimize(obs.NewSink())
	if err != nil {
		return nil, fmt.Errorf("flight: replay %s: %w", inc.ID, err)
	}
	dag, err := provenance.FromResult(res)
	if err != nil {
		return nil, fmt.Errorf("flight: replay %s: provenance: %w", inc.ID, err)
	}
	out := &ReplayResult{
		Fingerprint:      res.Best.Fingerprint(),
		CapturedFP:       inc.Record.PlanFP,
		Checksum:         dag.Checksum(),
		CapturedChecksum: cap.ProvenanceChecksum,
		DAG:              dag,
		Result:           res,
	}
	if len(cap.Provenance) > 0 {
		captured, err := provenance.ReadJSON(bytes.NewReader(cap.Provenance))
		if err != nil {
			return nil, fmt.Errorf("flight: replay %s: captured provenance: %w", inc.ID, err)
		}
		if out.CapturedChecksum == "" {
			out.CapturedChecksum = captured.Checksum()
		}
		rep := provenance.Diff(captured, dag)
		out.Diff = rep
		out.Identical = !rep.Changed()
	} else {
		// No embedded DAG: fall back to the checksum, then the plan
		// fingerprint alone.
		if out.CapturedChecksum != "" {
			out.Identical = out.Checksum == out.CapturedChecksum
		} else {
			out.Identical = out.FingerprintMatch()
		}
	}
	return out, nil
}

// optimize re-runs the capture's optimization from its captured catalog,
// rules, SQL, and options, reporting into sink. Replay and Derive share it,
// so a derived capture is exactly what a replay reproduces.
func (c *Capture) optimize(sink *obs.Sink) (*opt.Result, error) {
	if len(c.Catalog) == 0 {
		return nil, fmt.Errorf("bundle carries no catalog")
	}
	if c.Rules == "" {
		return nil, fmt.Errorf("bundle carries no rules")
	}
	cat, err := catalog.Parse(c.Catalog)
	if err != nil {
		return nil, err
	}
	rules, err := star.ParseRules(c.Rules)
	if err != nil {
		return nil, fmt.Errorf("rules: %w", err)
	}
	g, err := sqlparse.Parse(c.SQL, cat)
	if err != nil {
		return nil, fmt.Errorf("sql: %w", err)
	}
	co := c.Options
	opts := opt.Options{
		CartesianProducts: co.CartesianProducts,
		NoCompositeInners: co.NoCompositeInners,
		KeepAllGlue:       co.KeepAllGlue,
		DisablePruning:    co.DisablePruning,
		Weights:           cost.Weights{IO: co.WeightIO, CPU: co.WeightCPU, Msg: co.WeightMsg, Byte: co.WeightByte},
		Rules:             rules,
		JoinRoot:          co.JoinRoot,
		Parallelism:       co.Parallelism,
		Obs:               sink,
	}
	if co.Parallelism == 0 {
		opts.Parallelism = 1 // captured zero means "daemon default"; replay deterministically
	}
	res, err := opt.New(cat, opts).Optimize(g)
	if err != nil {
		return nil, fmt.Errorf("optimize: %w", err)
	}
	return res, nil
}

// Derive fills the capture's event trace and provenance DAG by
// re-optimizing its captured inputs with an event-keeping sink tagged req —
// the deterministic path Replay takes, so the bundle replays identical. A
// server that records no event log for plain requests calls it only when
// the watchdog fires. tail (an executed request's feedback rows rendered as
// events) is appended after the optimizer's trace.
func (c *Capture) Derive(req string, tail []obs.Event) error {
	sink := obs.NewRequestSink(req)
	res, err := c.optimize(sink)
	if err != nil {
		return fmt.Errorf("flight: derive capture: %w", err)
	}
	defer res.Release()
	dag, err := provenance.FromResult(res)
	if err != nil {
		return fmt.Errorf("flight: derive capture: provenance: %w", err)
	}
	var buf bytes.Buffer
	if err := dag.WriteJSON(&buf); err != nil {
		return fmt.Errorf("flight: derive capture: provenance: %w", err)
	}
	for _, e := range tail {
		sink.Emit(e) //obsguard:ignore capture path only; the derive sink is never nil
	}
	events := sink.Events()
	c.Events = make([]obs.WireEvent, len(events))
	for i, e := range events {
		c.Events[i] = obs.Wire(e)
	}
	c.Provenance = buf.Bytes()
	c.ProvenanceChecksum = dag.Checksum()
	return nil
}
