package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"sync"
	"time"
)

// TracesResponse is the body of GET /debug/traces without ?id=: the ring's
// traces, most recent first. internal/api re-exports this type so clients
// (svwload) decode exactly what the daemons serve.
type TracesResponse struct {
	Traces []TraceJSON `json:"traces"`
}

// SlowLog emits one structured JSON line per slow request. A nil *SlowLog
// disables slow logging entirely.
type SlowLog struct {
	// Threshold is the duration a finished trace must exceed to be
	// logged. Zero logs every traced request (useful in smoke tests;
	// production sets a real threshold via -slow-ms).
	Threshold time.Duration
	// W receives the log lines (nil = os.Stderr).
	W io.Writer
	// OnSlow, if set, is called once per logged trace with the trace's
	// endpoint — the hook the daemons use to bump
	// svw_slow_requests_total{endpoint} in their metrics registries.
	OnSlow func(endpoint string)

	mu sync.Mutex // serializes lines so concurrent requests never interleave
}

// slowLine is the log line's shape: the headline fields a log pipeline
// indexes on, plus the full span tree for root-causing one request.
type slowLine struct {
	Msg         string    `json:"msg"`
	TraceID     string    `json:"trace_id"`
	Endpoint    string    `json:"endpoint"`
	DurMS       float64   `json:"dur_ms"`
	ThresholdMS float64   `json:"threshold_ms"`
	Trace       TraceJSON `json:"trace"`
}

// Log writes t's slow-request line and fires OnSlow. The caller has
// already applied the threshold check.
func (l *SlowLog) Log(t *Trace) {
	if l == nil || t == nil {
		return
	}
	w := l.W
	if w == nil {
		w = os.Stderr
	}
	tj := t.JSON()
	b, err := json.Marshal(slowLine{
		Msg:         "slow_request",
		TraceID:     tj.TraceID,
		Endpoint:    tj.Endpoint,
		DurMS:       float64(tj.DurUS) / 1e3,
		ThresholdMS: l.Threshold.Seconds() * 1e3,
		Trace:       tj,
	})
	if err != nil {
		return
	}
	l.mu.Lock()
	w.Write(append(b, '\n'))
	l.mu.Unlock()
	if l.OnSlow != nil {
		l.OnSlow(t.endpoint)
	}
}

// Tracer is a daemon's tracing edge: the middleware that opens a trace
// per request and the /debug/traces handler over the completed-trace
// ring. Every svwd, member or coordinator, owns one.
type Tracer struct {
	Ring *Ring
	// Slow enables structured slow-request logging (nil = off).
	Slow *SlowLog
}

// NewTracer returns a tracer with a ring of ringSize (<= 0 =
// DefaultRingSize) and no slow logging.
func NewTracer(ringSize int) *Tracer {
	return &Tracer{Ring: NewRing(ringSize)}
}

// Wrap instruments next under the given endpoint label: a trace is opened
// from the request's Header (or a fresh ID), echoed on the response,
// carried through the handler via the request context, and — once the
// handler returns — finished, ring-buffered, and slow-logged when it
// exceeded the threshold.
func (tr *Tracer) Wrap(endpoint string, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		t := New(r.Header.Get(Header), endpoint)
		w.Header().Set(Header, t.ID())
		next.ServeHTTP(w, r.WithContext(NewContext(r.Context(), t)))
		dur := t.Finish()
		tr.Ring.Add(t)
		if tr.Slow != nil && dur > tr.Slow.Threshold {
			tr.Slow.Log(t)
		}
	})
}

// TracesHandler serves the ring as GET /debug/traces: every buffered
// trace most recent first, or one trace with ?id= (404 when the ID has
// aged out or never existed).
func (tr *Tracer) TracesHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		if id := r.URL.Query().Get("id"); id != "" {
			t := tr.Ring.Get(id)
			if t == nil {
				w.WriteHeader(http.StatusNotFound)
				writeIndented(w, struct {
					Error string `json:"error"`
				}{Error: fmt.Sprintf("no trace %q in the buffer", id)})
				return
			}
			writeIndented(w, t.JSON())
			return
		}
		ts := tr.Ring.Snapshot()
		resp := TracesResponse{Traces: make([]TraceJSON, len(ts))}
		for i, t := range ts {
			resp.Traces[i] = t.JSON()
		}
		writeIndented(w, resp)
	})
}

// writeIndented mirrors the services' JSON encoding (indented, trailing
// newline) without importing internal/api — trace sits below it.
func writeIndented(w http.ResponseWriter, v any) {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		w.WriteHeader(http.StatusInternalServerError)
		return
	}
	w.Write(append(b, '\n'))
}
