// Package trace is the serving stack's request-tracing core: a trace ID
// that rides the X-Svw-Trace-Id header across every layer seam (client →
// coordinator → member → engine), span recording keyed off context.Context, a
// fixed-size ring of completed traces served at GET /debug/traces, and
// structured slow-request logging.
//
// The package is dependency-free (stdlib only) and allocation-disciplined:
// recording happens at request and job granularity, never inside the
// simulator's timing core, and every operation is a no-op on a nil *Trace,
// so instrumented code paths cost one nil check when tracing is off — the
// engine's steady-state cycle loop is untouched either way.
//
// Concurrency: a Trace accumulates spans from many goroutines (engine
// workers, concurrent forwards) under one mutex. Spans may finish — or
// even start — after the request that owns the trace has completed (an
// abandoned engine job observes its cancellation late); the ring holds the
// live object, so /debug/traces reflects those stragglers whenever they
// land.
package trace

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"sync"
	"time"
)

// Header carries the request's trace ID. Generated at the edge when the
// client did not send one, echoed on the response, and forwarded verbatim
// on every backend hop so one ID names the request on every layer.
const Header = "X-Svw-Trace-Id"

// maxIDLen bounds accepted client-supplied IDs; longer (or otherwise
// malformed) IDs are replaced at the edge rather than trusted.
const maxIDLen = 64

// NewID returns a fresh 16-hex-character trace ID.
func NewID() string {
	var b [8]byte
	rand.Read(b[:])
	return hex.EncodeToString(b[:])
}

// ValidID reports whether a client-supplied trace ID is acceptable:
// non-empty, bounded, and limited to word characters plus '-' (so IDs are
// safe to log, grep and embed in JSON unescaped).
func ValidID(id string) bool {
	if id == "" || len(id) > maxIDLen {
		return false
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		switch {
		case c >= '0' && c <= '9', c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z',
			c == '-', c == '_':
		default:
			return false
		}
	}
	return true
}

// Attr is one key=value annotation on a span.
type Attr struct {
	Key, Value string
}

// span is the internal span record; spans are stored flat with parent
// indices, so a whole trace is one growable slice.
type span struct {
	name   string
	start  time.Time
	dur    time.Duration
	parent int32 // index into Trace.spans; -1 for top-level spans
	ended  bool
	attrs  []Attr
}

// Trace is one request's span collection. Create with New, propagate with
// NewContext/FromContext, close with Finish. All methods are safe for
// concurrent use and are no-ops on a nil receiver.
type Trace struct {
	id       string
	endpoint string
	start    time.Time

	mu    sync.Mutex
	spans []span
	dur   time.Duration
	done  bool
}

// New starts a trace. An empty (or invalid) id gets a fresh one, so the
// edge can pass the client header through unconditionally.
func New(id, endpoint string) *Trace {
	if !ValidID(id) {
		id = NewID()
	}
	return &Trace{id: id, endpoint: endpoint, start: time.Now()}
}

// ID returns the trace ID ("" on nil).
func (t *Trace) ID() string {
	if t == nil {
		return ""
	}
	return t.id
}

// Endpoint returns the endpoint label the trace was opened under.
func (t *Trace) Endpoint() string {
	if t == nil {
		return ""
	}
	return t.endpoint
}

// Finish closes the trace, fixing its duration; later calls return the
// same duration. Spans may still be appended afterwards (a straggling
// engine job); they are kept and visible on /debug/traces.
func (t *Trace) Finish() time.Duration {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.done {
		t.done = true
		t.dur = time.Since(t.start)
	}
	return t.dur
}

// Span is a handle on one recorded span. The zero Span (from a nil Trace)
// is inert: End/SetAttr/Child do nothing.
type Span struct {
	t   *Trace
	idx int32
}

// Active reports whether the handle records into a live trace — use it to
// skip attribute formatting entirely when tracing is off.
func (s Span) Active() bool { return s.t != nil }

// Start opens a top-level span.
func (t *Trace) Start(name string) Span { return t.startSpan(name, -1) }

// Child opens a span parented under s.
func (s Span) Child(name string) Span {
	if s.t == nil {
		return Span{}
	}
	return s.t.startSpan(name, s.idx)
}

func (t *Trace) startSpan(name string, parent int32) Span {
	if t == nil {
		return Span{}
	}
	t.mu.Lock()
	idx := int32(len(t.spans))
	t.spans = append(t.spans, span{name: name, start: time.Now(), parent: parent})
	t.mu.Unlock()
	return Span{t: t, idx: idx}
}

// End closes the span, fixing its duration; later calls are no-ops.
func (s Span) End() {
	if s.t == nil {
		return
	}
	s.t.mu.Lock()
	sp := &s.t.spans[s.idx]
	if !sp.ended {
		sp.ended = true
		sp.dur = time.Since(sp.start)
	}
	s.t.mu.Unlock()
}

// SetAttr appends one key=value annotation.
func (s Span) SetAttr(key, value string) {
	if s.t == nil {
		return
	}
	s.t.mu.Lock()
	sp := &s.t.spans[s.idx]
	sp.attrs = append(sp.attrs, Attr{Key: key, Value: value})
	s.t.mu.Unlock()
}

// --- wire shapes ---------------------------------------------------------

// SpanJSON is one span as served on /debug/traces and in slow-request log
// lines. Offsets and durations are microseconds relative to the trace
// start, so a span tree reads as a timeline without timestamp arithmetic.
type SpanJSON struct {
	Name string `json:"name"`
	// Parent is the index of the parent span in the trace's Spans slice
	// (-1 for top-level spans).
	Parent  int               `json:"parent"`
	StartUS int64             `json:"start_us"`
	DurUS   int64             `json:"dur_us"`
	Attrs   map[string]string `json:"attrs,omitempty"`
}

// TraceJSON is one completed (or still-accumulating) trace on the wire.
type TraceJSON struct {
	TraceID  string    `json:"trace_id"`
	Endpoint string    `json:"endpoint"`
	Start    time.Time `json:"start"`
	// DurUS is the whole request's duration; 0 until Finish (Done=false).
	DurUS int64      `json:"dur_us"`
	Done  bool       `json:"done"`
	Spans []SpanJSON `json:"spans"`
}

// JSON snapshots the trace into its wire shape.
func (t *Trace) JSON() TraceJSON {
	if t == nil {
		return TraceJSON{}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := TraceJSON{
		TraceID:  t.id,
		Endpoint: t.endpoint,
		Start:    t.start,
		DurUS:    t.dur.Microseconds(),
		Done:     t.done,
		Spans:    make([]SpanJSON, len(t.spans)),
	}
	for i := range t.spans {
		sp := &t.spans[i]
		sj := SpanJSON{
			Name:    sp.name,
			Parent:  int(sp.parent),
			StartUS: sp.start.Sub(t.start).Microseconds(),
			DurUS:   sp.dur.Microseconds(),
		}
		if len(sp.attrs) > 0 {
			sj.Attrs = make(map[string]string, len(sp.attrs))
			for _, a := range sp.attrs {
				sj.Attrs[a.Key] = a.Value
			}
		}
		out.Spans[i] = sj
	}
	return out
}

// --- context propagation -------------------------------------------------

type ctxKey struct{}

// NewContext returns ctx carrying t.
func NewContext(ctx context.Context, t *Trace) context.Context {
	return context.WithValue(ctx, ctxKey{}, t)
}

// FromContext returns the context's trace, or nil when the request is not
// being traced — every recording operation on the nil result is a no-op.
func FromContext(ctx context.Context) *Trace {
	if ctx == nil {
		return nil
	}
	t, _ := ctx.Value(ctxKey{}).(*Trace)
	return t
}
