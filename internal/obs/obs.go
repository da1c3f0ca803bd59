// Package obs is the observability layer shared by the optimizer and the
// executor: a concurrency-safe event sink, a hierarchical span tracer, and a
// metrics registry (counters, gauges, fixed-bucket log-scale duration
// histograms), built on the standard library only.
//
// The design constraint is that the *disabled* path must cost nothing: every
// entry point is safe on a nil *Sink (and nil *Registry, *Counter, ...), so
// instrumented code writes
//
//	en.Obs.Emit(obs.Event{Name: obs.EvAltFired, ...})
//
// unconditionally and pays only a nil check plus a stack-allocated Event
// when observability is off. BenchmarkObsOverhead in the repository root
// verifies the disabled-path overhead stays under a few percent.
//
// Event taxonomy, metric names, and exporter formats are documented in
// docs/OBSERVABILITY.md.
package obs

import (
	"sync"
	"sync/atomic"
	"time"
)

// Kind classifies an event: a point-in-time instant, or the begin/end pair
// of a span.
type Kind uint8

const (
	// KindInstant is a point event.
	KindInstant Kind = iota
	// KindSpanBegin opens a span; a KindSpanEnd with the same Span id
	// closes it.
	KindSpanBegin
	// KindSpanEnd closes a span.
	KindSpanEnd
)

// String renders the kind for exporters.
func (k Kind) String() string {
	switch k {
	case KindSpanBegin:
		return "begin"
	case KindSpanEnd:
		return "end"
	default:
		return "instant"
	}
}

// Event names — the taxonomy. Span names double as the base of the duration
// histogram the span observes into (dots become underscores, "_seconds" is
// appended): a "star.rule" span feeds star_rule_seconds{name="<rule>"}.
const (
	// EvRule spans one STAR reference; A1 is the rule name, A2 the
	// rendered arguments, end N1 the SAP size returned.
	EvRule = "star.rule"
	// EvAltFired marks an alternative whose condition held; A1 rule,
	// N1 1-based alternative index, N2 plans the body produced.
	EvAltFired = "star.alt.fired"
	// EvAltRejected marks an alternative whose condition failed (or an
	// OTHERWISE skipped because an earlier alternative fired); A1 rule,
	// N1 1-based alternative index, A2 the failing condition of
	// applicability in DSL syntax (so WHYNOT can cite it).
	EvAltRejected = "star.alt.rejected"
	// EvGlue spans one Glue reference; A1 is the table-set key, A2 the
	// required properties, end N1 the number of satisfying plans.
	EvGlue = "glue.call"
	// EvGlueHit / EvGlueMiss mark plan-table lookup outcomes inside Glue;
	// A1 is the table-set key.
	EvGlueHit  = "glue.hit"
	EvGlueMiss = "glue.miss"
	// EvVeneer marks a Glue operator injected over a plan; A1 is the
	// LOLEPOP name (SHIP, SORT, STORE, BUILDINDEX, FILTER, ...), A2 the
	// veneer node's fingerprint, A3 its input plan's fingerprint, F1 its
	// estimated total cost.
	EvVeneer = "glue.veneer"
	// EvPlanInsert marks a plan-table insertion; A1 table-set key, A2 the
	// predicate key, N1 plans offered, N2 plans retained in the entry
	// afterwards.
	EvPlanInsert = "plantable.insert"
	// EvPlanOffer marks one plan offered to a plan-table entry, before
	// dominance is decided; A1 table-set key, A2 the plan fingerprint,
	// A3 "origin desc" (the STAR alternative that built it and the
	// operator), F1 estimated total cost, F2 estimated cardinality.
	// Provenance reconstructs pruned plans' identities from these.
	EvPlanOffer = "plantable.offer"
	// EvPlanPrune marks a dominance decision; A1 table-set key, N1 0 when
	// the incoming plan was rejected as dominated, 1 when an existing plan
	// was evicted by the incoming one. A2 is the victim's fingerprint, A3
	// the dominator's, F1 the victim's total cost, F2 the dominator's.
	EvPlanPrune = "plantable.prune"
	// EvPhase spans one optimizer phase; A1 names it ("access", "join-2",
	// ..., "root").
	EvPhase = "opt.phase"
	// EvPair marks one joinable partition handed to the root join STAR;
	// A1 renders "{left}|{right}".
	EvPair = "opt.pair"
	// EvExecRun spans one plan execution; end N1 is the result row count.
	EvExecRun = "exec.run"
	// EvExecOp reports one operator's actuals after a run; A1 describes
	// the node, N1 rows produced, N2 inclusive tuple operations.
	EvExecOp = "exec.op"
	// EvAltCoverage summarizes one STAR alternative's fate at the end of
	// an optimization: A1 is the rule name, N1 the 1-based alternative
	// ordinal, A2 the packed tallies ("fired=... rejected=... built=...
	// retained=... pruned=... winner=..."), A3 the packed dominator
	// attribution for pruned plans ("origin:count ..."). One event is
	// emitted per alternative of the active repertoire — including
	// never-exercised ones, so consumers see the whole alternative space.
	// Rendered by AltCoverage.Event from the typed tallies the optimizer
	// returns; in-process consumers read those tallies, not this event.
	EvAltCoverage = "opt.alt.coverage"
	// EvVeneerCoverage summarizes one Glue veneer operator's fate at the
	// end of an optimization: A1 is the LOLEPOP name, A2 the packed
	// tallies ("injected=... retained=... winner=..."). Rendered by
	// VeneerCoverage.Event.
	EvVeneerCoverage = "opt.veneer.coverage"
	// EvExecFeedback closes the estimate-vs-actual loop after an execution
	// with per-operator attribution: A1 is the operator name, A2 the plan
	// node's fingerprint, N1 actual rows (summed over loops), N2 the loop
	// (open) count, F1 the optimizer's estimated cardinality, F2 the
	// resulting Q-error (max(est/act, act/est), both clamped to >= 1).
	EvExecFeedback = "exec.feedback"
)

// Event is one observation. Sequence number and timestamp are assigned by
// the sink; callers fill the rest. The two string and two numeric payload
// slots keep the struct flat (no per-event allocations on the emit path).
type Event struct {
	// Seq is the sink-assigned sequence number (1-based).
	Seq int64
	// T is the offset from the sink's start time.
	T time.Duration
	// Req is the request id the event belongs to, stamped by the sink
	// when it carries a tag (NewRequestSink). Empty outside a server:
	// batch tools run one query per process and need no disambiguation.
	Req string
	// Kind is instant, span-begin, or span-end.
	Kind Kind
	// Name is the taxonomy name (Ev* constants).
	Name string
	// A1, A2, and A3 are string payloads (rule name, table-set key, plan
	// fingerprints, ...).
	A1, A2, A3 string
	// Depth is the caller's nesting depth, when meaningful (STAR
	// recursion depth).
	Depth int
	// Span links a begin to its end (sink-assigned id).
	Span int64
	// N1 and N2 are integer payloads (alternative index, plan counts,
	// row counts).
	N1, N2 int64
	// F1 and F2 are float payloads (estimated costs, cardinalities).
	F1, F2 float64
}

// Sink collects events and owns a metrics registry. It is safe for
// concurrent use; the nil sink discards everything at nil-check cost.
type Sink struct {
	mu      sync.Mutex
	start   time.Time
	events  []Event
	seq     int64
	spanSeq atomic.Int64
	drop    bool   // metrics-only: count, but keep no event log
	tag     string // request id stamped into every event's Req field
	tees    []func(Event)
	reg     *Registry
	prof    *Prof // optional self-profiler (EnableProf); nil costs one check
}

// NewSink returns a sink that records events and metrics.
func NewSink() *Sink {
	return &Sink{start: time.Now(), reg: NewRegistry()}
}

// NewMetricsSink returns a sink that maintains metrics but discards the
// event log — the shape long-running aggregation (cmd/starbench -metrics)
// wants, since the event log grows without bound.
func NewMetricsSink() *Sink {
	s := NewSink()
	s.drop = true
	return s
}

// NewRequestSink returns a sink whose every event is stamped with the
// request id req before being recorded or fanned out — the per-request
// isolation unit of a long-running server: each concurrent optimization
// writes into its own sink, so traces never interleave, and the Req field
// keeps attribution after streams from many requests are merged.
func NewRequestSink(req string) *Sink {
	s := NewSink()
	s.tag = req
	return s
}

// NewRequestMetricsSink is NewRequestSink without the event log: metrics,
// the profiler, and the event count, but no recorded events. A server
// answers plain requests with it, so a request pays only for its answer.
func NewRequestMetricsSink(req string) *Sink {
	s := NewRequestSink(req)
	s.drop = true
	return s
}

// Child returns a fresh sink of the same shape as s for one unit of
// isolated work — e.g. one subset task of the parallel join enumeration.
// The child keeps an event log when s does or when s fans events out to
// tees, so absorbed events still reach them. Workers record into their
// child sink without contending on the parent, and the parent later folds
// the child back in with Absorb, in a deterministic order. Nil for the nil
// sink.
func (s *Sink) Child() *Sink {
	if s == nil {
		return nil
	}
	c := &Sink{start: time.Now(), reg: NewRegistry(), drop: !s.Streams()}
	if s.prof != nil {
		c.prof = newProf(ProfOptions{Labels: s.prof.labels})
	}
	return c
}

// Absorb folds a finished child sink into s: the child's event log is taken
// over in the child's order, its metrics registry and profiler merged. The
// parent's event count advances by every event the child saw, kept or not,
// so a metrics-only sink counts exactly what an event-keeping one does.
// Sequence numbers are re-stamped from s's counter, span ids are remapped
// through s's span counter (so absorbed spans never collide with s's own),
// timestamps are re-based onto s's epoch preserving real durations, and s's
// request tag is stamped onto untagged events — exactly what Emit would
// have done had the work reported into s directly. Tees see the absorbed
// events in order. The child must not be used afterwards. No-op when either
// side is nil.
func (s *Sink) Absorb(child *Sink) {
	if s == nil || child == nil {
		return
	}
	child.mu.Lock()
	events, seen := child.events, child.seq
	child.events = nil
	child.mu.Unlock()
	offset := child.start.Sub(s.start)
	s.mu.Lock()
	base := s.seq
	s.seq += seen
	var spanMap map[int64]int64
	for i := range events {
		e := &events[i]
		e.Seq = base + int64(i) + 1
		e.T += offset
		if e.Req == "" {
			e.Req = s.tag
		}
		if e.Span != 0 {
			if spanMap == nil {
				spanMap = make(map[int64]int64)
			}
			ns, ok := spanMap[e.Span]
			if !ok {
				ns = s.spanSeq.Add(1)
				spanMap[e.Span] = ns
			}
			e.Span = ns
		}
		for _, fn := range s.tees {
			fn(*e)
		}
	}
	if !s.drop {
		if s.events == nil {
			s.events = events
		} else {
			s.events = append(s.events, events...)
		}
	}
	s.mu.Unlock()
	s.reg.Merge(child.Registry())
	if s.prof != nil {
		s.prof.merge(child.prof)
	}
}

// Tag returns the sink's request id ("" for untagged and nil sinks).
func (s *Sink) Tag() string {
	if s == nil {
		return ""
	}
	return s.tag
}

// Tee registers fn to be called with every event the sink sees (after Seq,
// T, and Req are stamped), including on metrics-only sinks that drop their
// own log — the fan-out hook live event streaming subscribes through. fn is
// invoked under the sink's lock so subscribers observe one sink's events in
// order; it must be fast, must not block, and must not call back into the
// sink. Tee must be called before the sink is shared across goroutines.
func (s *Sink) Tee(fn func(Event)) {
	if s == nil || fn == nil {
		return
	}
	s.mu.Lock()
	s.tees = append(s.tees, fn)
	s.mu.Unlock()
}

// defaultSink is the process-wide fallback sink, swapped atomically: it is
// read on every instrumented emit path (optimizer, executor) and may be
// installed or replaced while those run concurrently (a serving daemon, a
// test), so a plain package variable would be a data race.
var defaultSink atomic.Pointer[Sink]

// DefaultSink returns the fallback sink the optimizer and executor use when
// none is injected explicitly — the process-wide aggregation point
// (prometheus's default-registry idiom). Nil unless a tool opted in via
// SetDefault.
func DefaultSink() *Sink { return defaultSink.Load() }

// SetDefault installs (or, with nil, removes) the process-wide fallback
// sink. Safe to call concurrently with optimizations in flight; they pick
// up the new sink on their next resolution.
func SetDefault(s *Sink) { defaultSink.Store(s) }

// Enabled reports whether the sink records anything; instrumented code uses
// it to guard argument rendering that would otherwise allocate.
func (s *Sink) Enabled() bool { return s != nil }

// KeepsEvents reports whether the sink retains its event log (false for the
// nil sink and for metrics-only sinks). Work whose output is derived from
// the recorded log — provenance, the rule-firing trace — is skipped when the
// log is dropped.
func (s *Sink) KeepsEvents() bool { return s != nil && !s.drop }

// Streams reports whether an emitted event goes anywhere: into the event
// log or out to a tee. Code that renders an event only for its readers
// checks it and, when it is false, counts the event with Skip instead.
// Tees are registered before the sink is shared, so the check needs no
// lock.
func (s *Sink) Streams() bool { return s != nil && (!s.drop || len(s.tees) > 0) }

// Skip counts n events that were not rendered because the sink does not
// stream them (see Streams), keeping Len equal to what an event-keeping
// sink would report.
func (s *Sink) Skip(n int64) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.seq += n
	s.mu.Unlock()
}

// Registry returns the sink's metrics registry (nil for the nil sink —
// every Registry method is nil-safe too).
func (s *Sink) Registry() *Registry {
	if s == nil {
		return nil
	}
	return s.reg
}

// Emit records an instant event. Seq, T, and Req are assigned here.
func (s *Sink) Emit(e Event) {
	if s == nil {
		return
	}
	e.Kind = KindInstant
	s.mu.Lock()
	s.seq++
	e.Seq = s.seq
	e.T = time.Since(s.start)
	if e.Req == "" {
		e.Req = s.tag
	}
	if !s.drop {
		s.events = append(s.events, e)
	}
	for _, fn := range s.tees {
		fn(e)
	}
	s.mu.Unlock()
}

// append records a pre-filled span event under the lock.
func (s *Sink) append(e Event) {
	s.mu.Lock()
	s.seq++
	e.Seq = s.seq
	if e.Req == "" {
		e.Req = s.tag
	}
	if !s.drop {
		s.events = append(s.events, e)
	}
	for _, fn := range s.tees {
		fn(e)
	}
	s.mu.Unlock()
}

// Span is an open interval produced by StartSpan. The zero Span (from a nil
// sink) is a no-op.
type Span struct {
	s    *Sink
	id   int64
	name string
	a1   string
	t0   time.Duration
}

// StartSpan opens a span. depth is the caller's nesting depth (0 when not
// meaningful). Ending the span also observes its duration into the
// histogram named after the span (see the Ev* docs).
func (s *Sink) StartSpan(name, a1, a2 string, depth int) Span {
	if s == nil {
		return Span{}
	}
	id := s.spanSeq.Add(1)
	t := time.Since(s.start)
	s.append(Event{Kind: KindSpanBegin, Name: name, A1: a1, A2: a2, Depth: depth, Span: id, T: t})
	s.prof.spanBegin(name, a1, t)
	return Span{s: s, id: id, name: name, a1: a1, t0: t}
}

// End closes the span, recording n1 as the end event's numeric payload and
// observing the duration histogram.
func (sp Span) End(n1 int64) {
	if sp.s == nil {
		return
	}
	t := time.Since(sp.s.start)
	sp.s.append(Event{Kind: KindSpanEnd, Name: sp.name, A1: sp.a1, Span: sp.id, T: t, N1: n1})
	sp.s.reg.Histogram(spanHistName(sp.name, sp.a1)).Observe(t - sp.t0)
	sp.s.prof.spanEnd(sp.name, t)
}

// spanHistName derives the histogram name a span observes into:
// "star.rule" + "JoinRoot" -> `star_rule_seconds{name="JoinRoot"}`.
func spanHistName(name, a1 string) string {
	base := make([]byte, 0, len(name)+len(a1)+18)
	for i := 0; i < len(name); i++ {
		c := name[i]
		if c == '.' {
			c = '_'
		}
		base = append(base, c)
	}
	base = append(base, "_seconds"...)
	if a1 != "" {
		base = append(base, `{name="`...)
		base = append(base, a1...)
		base = append(base, `"}`...)
	}
	return string(base)
}

// Events returns a copy of the recorded event log.
func (s *Sink) Events() []Event {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]Event(nil), s.events...)
}

// Len returns the number of events seen (including dropped ones on a
// metrics-only sink).
func (s *Sink) Len() int64 {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.seq
}
