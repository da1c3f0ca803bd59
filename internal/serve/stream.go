package serve

import (
	"fmt"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"

	"stars/internal/obs"
)

// EvDropped is the synthetic event a slow /events subscriber receives in
// place of the events it missed; N1 is how many were dropped since the last
// delivered event. It is generated per subscriber, never recorded in any
// sink.
const EvDropped = "serve.events.dropped"

// subscriber is one /events connection: a bounded buffer between the
// publishing request goroutines and the streaming handler. When the buffer
// is full the publisher drops rather than blocks — a slow tail must never
// stall an optimization.
type subscriber struct {
	ch      chan obs.Event
	dropped atomic.Int64
}

// broadcaster fans every observed event out to all live subscribers.
// publish is called from inside per-request sinks' locked sections (via
// Sink.Tee), so it must stay non-blocking and lock-light.
type broadcaster struct {
	mu     sync.RWMutex
	subs   map[*subscriber]struct{}
	closed bool

	published   *obs.Counter
	dropped     *obs.Counter
	subscribers *obs.Gauge
}

// newBroadcaster wires a broadcaster's own accounting into reg.
func newBroadcaster(reg *obs.Registry) *broadcaster {
	return &broadcaster{
		subs:        map[*subscriber]struct{}{},
		published:   reg.Counter("serve_events_published_total"),
		dropped:     reg.Counter("serve_events_dropped_total"),
		subscribers: reg.Gauge("serve_event_subscribers"),
	}
}

// publish delivers e to every subscriber with room, dropping (and counting)
// for the ones without.
func (b *broadcaster) publish(e obs.Event) {
	b.published.Add(1)
	b.mu.RLock()
	for sub := range b.subs {
		select {
		case sub.ch <- e:
		default:
			sub.dropped.Add(1)
			b.dropped.Add(1)
		}
	}
	b.mu.RUnlock()
}

// active reports whether any subscriber is connected — a request started
// while none is keeps no event log.
func (b *broadcaster) active() bool {
	b.mu.RLock()
	defer b.mu.RUnlock()
	return len(b.subs) > 0
}

// subscribe registers a new bounded subscriber; nil after closeAll.
func (b *broadcaster) subscribe(buf int) *subscriber {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return nil
	}
	sub := &subscriber{ch: make(chan obs.Event, buf)}
	b.subs[sub] = struct{}{}
	b.subscribers.Set(int64(len(b.subs)))
	return sub
}

// unsubscribe removes sub; pending buffered events are discarded.
func (b *broadcaster) unsubscribe(sub *subscriber) {
	b.mu.Lock()
	defer b.mu.Unlock()
	delete(b.subs, sub)
	b.subscribers.Set(int64(len(b.subs)))
}

// closeAll ends every stream (each handler sees its channel close) and
// refuses new subscribers — the first step of a graceful drain, since open
// streams would otherwise hold http.Server.Shutdown forever.
func (b *broadcaster) closeAll() {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return
	}
	b.closed = true
	for sub := range b.subs {
		close(sub.ch)
		delete(b.subs, sub)
	}
	b.subscribers.Set(0)
}

// handleEvents streams live observability events. Default framing is NDJSON
// (one obs event per line, same wire form as Sink.WriteNDJSON, each tagged
// with its request id); an Accept header containing text/event-stream
// switches to Server-Sent Events with the event name in the SSE event field.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	fl, ok := w.(http.Flusher)
	if !ok {
		http.Error(w, "streaming unsupported", http.StatusInternalServerError)
		return
	}
	sub := s.bcast.subscribe(s.cfg.EventBuffer)
	if sub == nil {
		s.writeError(w, http.StatusServiceUnavailable, "", fmt.Errorf("server is draining"))
		return
	}
	defer s.bcast.unsubscribe(sub)

	sse := strings.Contains(r.Header.Get("Accept"), "text/event-stream")
	if sse {
		w.Header().Set("Content-Type", "text/event-stream")
		w.Header().Set("Cache-Control", "no-cache")
	} else {
		w.Header().Set("Content-Type", "application/x-ndjson")
	}
	w.WriteHeader(http.StatusOK)
	fl.Flush()

	write := func(e obs.Event) error {
		if sse {
			if _, err := fmt.Fprintf(w, "event: %s\ndata: ", e.Name); err != nil {
				return err
			}
			if err := obs.EncodeNDJSON(w, e); err != nil {
				return err
			}
			_, err := fmt.Fprint(w, "\n")
			return err
		}
		return obs.EncodeNDJSON(w, e)
	}
	for {
		select {
		case e, ok := <-sub.ch:
			if !ok {
				return // draining
			}
			if d := sub.dropped.Swap(0); d > 0 {
				if write(obs.Event{Kind: obs.KindInstant, Name: EvDropped, N1: d}) != nil {
					return
				}
			}
			if write(e) != nil {
				return
			}
			fl.Flush()
		case <-r.Context().Done():
			return
		}
	}
}
