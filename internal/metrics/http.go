package metrics

import (
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"
)

// The shared per-endpoint HTTP series every svwd exposes, so one
// dashboard reads a member and a coordinator alike.
const (
	httpRequestsName = "svw_http_requests_total"
	httpRequestsHelp = "HTTP requests served, by endpoint and status code."
	httpLatencyName  = "svw_http_request_seconds"
	httpLatencyHelp  = "HTTP request latency by endpoint."
)

// HTTP instruments handlers with the shared per-endpoint request
// counter and latency histogram. Create with NewHTTP; Wrap each route.
type HTTP struct {
	reg *Registry

	mu    sync.Mutex
	codes map[string]*Counter // endpoint\x00code -> counter
}

// NewHTTP returns an instrumenter registering into reg.
func NewHTTP(reg *Registry) *HTTP {
	return &HTTP{reg: reg, codes: make(map[string]*Counter)}
}

// Wrap instruments next under the given endpoint label: one latency
// observation and one (endpoint, code) count per request — on every
// exit path. Accounting runs in a defer so a panicking handler (which
// net/http recovers above us, invisibly to a non-deferred call) is still
// counted: as 500 when it died before writing anything, as whatever it
// managed to write otherwise. The panic is re-raised so net/http's
// connection teardown (including http.ErrAbortHandler) is unchanged.
func (h *HTTP) Wrap(endpoint string, next http.Handler) http.Handler {
	hist := h.reg.Histogram(httpLatencyName, httpLatencyHelp, LatencyBuckets(),
		Label{Key: "endpoint", Value: endpoint})
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		sw := &statusWriter{ResponseWriter: w}
		t0 := time.Now()
		defer func() {
			hist.Observe(time.Since(t0))
			code := sw.status()
			if p := recover(); p != nil {
				if sw.code == 0 {
					code = http.StatusInternalServerError
				}
				h.codeCounter(endpoint, code).Inc()
				panic(p)
			}
			h.codeCounter(endpoint, code).Inc()
		}()
		next.ServeHTTP(sw, r)
	})
}

// codeCounter returns the (endpoint, code) counter, creating it on the
// code's first occurrence (steady-state requests take the map hit only).
func (h *HTTP) codeCounter(endpoint string, code int) *Counter {
	key := endpoint + "\x00" + strconv.Itoa(code)
	h.mu.Lock()
	defer h.mu.Unlock()
	if c, ok := h.codes[key]; ok {
		return c
	}
	c := h.reg.Counter(httpRequestsName, httpRequestsHelp,
		Label{Key: "endpoint", Value: endpoint},
		Label{Key: "code", Value: strconv.Itoa(code)})
	h.codes[key] = c
	return c
}

// Requests sums the requests served under endpoint over every status
// code.
func (h *HTTP) Requests(endpoint string) uint64 {
	prefix := endpoint + "\x00"
	h.mu.Lock()
	defer h.mu.Unlock()
	var n uint64
	for key, c := range h.codes {
		if strings.HasPrefix(key, prefix) {
			n += c.Value()
		}
	}
	return n
}

// statusWriter records the response status. It passes Flush through so
// SSE streaming works unchanged behind the instrumentation.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.code == 0 {
		w.code = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.code == 0 {
		w.code = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// status returns the recorded code (200 when the handler never wrote).
func (w *statusWriter) status() int {
	if w.code == 0 {
		return http.StatusOK
	}
	return w.code
}
