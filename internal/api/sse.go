package api

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
)

// Server-sent events for POST /v1/sweep: one "result" event per job, in
// job-index order (the engine's determinism guarantee carried over the
// wire — by a member directly, and by a coordinator across its members),
// then one "done" event. Each event carries its job index as the SSE id,
// so clients can assert ordering and resume bookkeeping trivially.

// WantsSSE reports whether the client asked for an event stream.
func WantsSSE(r *http.Request) bool {
	return strings.Contains(r.Header.Get("Accept"), "text/event-stream")
}

// SSE writes event frames, flushing after each one so events are delivered
// as they happen rather than at the end of the response.
type SSE struct {
	w http.ResponseWriter
	f http.Flusher
	// err latches the first write failure (client gone); later writes are
	// skipped so the sweep loop can keep draining results.
	err error
}

// NewSSE starts an event stream on w. It returns an error if w cannot
// flush, in which case nothing has been written.
func NewSSE(w http.ResponseWriter) (*SSE, error) {
	f, ok := w.(http.Flusher)
	if !ok {
		return nil, fmt.Errorf("response writer does not support streaming")
	}
	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-store")
	h.Set("X-Accel-Buffering", "no") // defeat proxy buffering
	w.WriteHeader(http.StatusOK)
	f.Flush()
	return &SSE{w: w, f: f}, nil
}

// Event emits one frame with the given event name, id and JSON-encoded
// data payload. Write errors latch: the first failure suppresses all
// subsequent frames.
func (s *SSE) Event(name string, id int, v any) {
	if s.err != nil {
		return
	}
	data, err := json.Marshal(v)
	if err != nil {
		s.err = err
		return
	}
	if _, err := fmt.Fprintf(s.w, "event: %s\nid: %d\ndata: %s\n\n", name, id, data); err != nil {
		s.err = err
		return
	}
	s.f.Flush()
}

// Event is one parsed frame of an event stream — the client-side view of
// what Event (the writer) emits. Tests and tooling use ParseEvents to
// assert ordering and payloads from either service layer.
type Event struct {
	Name string
	ID   int
	Data []byte
}

// ParseEvents reads an entire SSE body and returns its frames in arrival
// order. Frames without an id line report ID -1.
func ParseEvents(r io.Reader) ([]Event, error) {
	var events []Event
	cur := Event{ID: -1}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			cur.Name = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "id: "):
			id, err := strconv.Atoi(strings.TrimPrefix(line, "id: "))
			if err != nil {
				return nil, fmt.Errorf("bad id line %q", line)
			}
			cur.ID = id
		case strings.HasPrefix(line, "data: "):
			cur.Data = []byte(strings.TrimPrefix(line, "data: "))
		case line == "":
			if cur.Name != "" {
				events = append(events, cur)
			}
			cur = Event{ID: -1}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return events, nil
}
