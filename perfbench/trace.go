package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// span is one timed call the benchmark made into a layer. Spans of one op
// share its id; parent indexes the caller's span in the same recorder (-1
// for an op's root).
type span struct {
	name       string
	op         int64
	parent     int
	start, end time.Duration // since the recorders' shared epoch
}

// recorder holds one client goroutine's spans in memory until the run ends.
// The nil recorder records nothing, so untraced code paths pay one nil check.
type recorder struct {
	epoch time.Time
	tid   int
	spans []span
}

func newRecorder(epoch time.Time, tid int) *recorder {
	return &recorder{epoch: epoch, tid: tid, spans: make([]span, 0, 1<<14)}
}

// begin opens a span and returns its index for end and for children.
func (r *recorder) begin(name string, op int64, parent int) int {
	if r == nil {
		return -1
	}
	r.spans = append(r.spans, span{name: name, op: op, parent: parent, start: time.Since(r.epoch)})
	return len(r.spans) - 1
}

func (r *recorder) end(i int) {
	if r == nil {
		return
	}
	r.spans[i].end = time.Since(r.epoch)
}

// selfTimes returns every span's self time in microseconds, grouped by span
// name: its duration minus the part its direct children cover (children of
// one span never overlap, since a client calls one layer at a time).
func selfTimes(recs []*recorder) map[string][]float64 {
	out := map[string][]float64{}
	for _, r := range recs {
		child := make([]time.Duration, len(r.spans))
		for _, s := range r.spans {
			if s.parent >= 0 {
				child[s.parent] += s.end - s.start
			}
		}
		for i, s := range r.spans {
			self := s.end - s.start - child[i]
			out[s.name] = append(out[s.name], float64(self)/float64(time.Microsecond))
		}
	}
	return out
}

// durations returns every span's full duration in microseconds, by name.
func durations(recs []*recorder) map[string][]float64 {
	out := map[string][]float64{}
	for _, r := range recs {
		for _, s := range r.spans {
			out[s.name] = append(out[s.name], float64(s.end-s.start)/float64(time.Microsecond))
		}
	}
	return out
}

// chromeEvent is one Chrome trace_event entry, shaped like the repository's
// own exporter (obs.Sink.WriteChromeTrace): B/E pairs per span.
type chromeEvent struct {
	Name  string         `json:"name"`
	Phase string         `json:"ph"`
	TsUs  float64        `json:"ts"`
	Pid   int            `json:"pid"`
	Tid   int            `json:"tid"`
	Args  map[string]any `json:"args,omitempty"`
}

// writeChromeTrace writes all spans as a Chrome trace_event JSON object
// (one thread per client), which chrome://tracing and ui.perfetto.dev open.
func writeChromeTrace(path string, recs []*recorder) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	// A bufio.Writer keeps its first write error and returns it from
	// Flush, so the writes below need no checks of their own.
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	w.WriteString(`{"displayTimeUnit":"ms","traceEvents":[`)
	sep := ""
	put := func(e chromeEvent) {
		w.WriteString(sep)
		sep = ","
		enc.Encode(e)
	}
	for _, r := range recs {
		writeRecorder(r, put)
	}
	w.WriteString("]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// writeRecorder emits one recorder's spans as properly nested B/E events:
// spans are stored in begin order, so a span's E is due once a later span
// begins outside it.
func writeRecorder(r *recorder, put func(chromeEvent)) {
	us := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
	var stack []int
	pop := func() {
		s := r.spans[stack[len(stack)-1]]
		stack = stack[:len(stack)-1]
		put(chromeEvent{Name: s.name, Phase: "E", TsUs: us(s.end), Pid: 1, Tid: r.tid})
	}
	for i, s := range r.spans {
		for len(stack) > 0 && stack[len(stack)-1] != s.parent {
			pop()
		}
		args := map[string]any{"op": s.op}
		if s.parent >= 0 {
			args["parent"] = r.spans[s.parent].name
		}
		put(chromeEvent{Name: s.name, Phase: "B", TsUs: us(s.start), Pid: 1, Tid: r.tid, Args: args})
		stack = append(stack, i)
	}
	for len(stack) > 0 {
		pop()
	}
}

// traceNote describes the written trace for the report.
func traceNote(path string, recs []*recorder) string {
	n := 0
	for _, r := range recs {
		n += len(r.spans)
	}
	return fmt.Sprintf("%d spans in %s", n, path)
}
