// Package metrics is the serving stack's dependency-free observability
// core: atomic counters, gauges and fixed-bucket latency histograms,
// rendered in the Prometheus text exposition format. Every svwd mounts a
// Registry on GET /metrics, so one scrape config covers a single member
// and a coordinator fronting a fleet of them.
//
// The hot path is allocation-free: Counter.Inc/Add, Gauge.Set/Add and
// Histogram.Observe are single atomic operations (plus a bounded linear
// scan over the bucket bounds), so instrumenting the per-request serving
// path costs nanoseconds, not garbage. Allocation happens only at
// registration and at scrape time, both of which are off the request
// path.
package metrics

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Label is one name="value" pair attached to a series.
type Label struct {
	Key, Value string
}

// LatencyBuckets returns the default histogram bounds in seconds: 100µs
// to 60s on a roughly log scale, covering everything from a memory-tier
// cache hit to a full uncached study sweep.
func LatencyBuckets() []float64 {
	return []float64{
		0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005,
		0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30, 60,
	}
}

// series is one rendered line group of a family.
type series interface {
	render(w io.Writer, name string)
}

// family is one metric name: a HELP/TYPE header plus its series.
type family struct {
	name, help, typ string

	mu    sync.Mutex
	order []series
	byKey map[string]series
}

// Registry holds metric families in registration order. Create with
// NewRegistry; all methods are safe for concurrent use.
type Registry struct {
	mu       sync.Mutex
	families []*family
	byName   map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*family)}
}

// family returns (creating if needed) the family under name. The first
// registration fixes help and type; later registrations reuse them.
func (r *Registry) family(name, help, typ string) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.byName[name]; ok {
		return f
	}
	f := &family{name: name, help: help, typ: typ, byKey: make(map[string]series)}
	r.byName[name] = f
	r.families = append(r.families, f)
	return f
}

// add registers s under the family's label key, returning an existing
// series with the same labels instead when one was registered before (so
// re-wiring a handler never duplicates lines).
func (f *family) add(key string, s series) series {
	f.mu.Lock()
	defer f.mu.Unlock()
	if prev, ok := f.byKey[key]; ok {
		return prev
	}
	f.byKey[key] = s
	f.order = append(f.order, s)
	return s
}

// --- counter -------------------------------------------------------------

// Counter is a monotonically increasing uint64.
type Counter struct {
	v      atomic.Uint64
	labels string
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

func (c *Counter) render(w io.Writer, name string) {
	fmt.Fprintf(w, "%s%s %d\n", name, c.labels, c.v.Load())
}

// Counter registers (or returns the existing) counter under name+labels.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	f := r.family(name, help, "counter")
	ls := renderLabels(labels)
	return f.add(ls, &Counter{labels: ls}).(*Counter)
}

// --- gauge ---------------------------------------------------------------

// Gauge is an int64 that can go up and down.
type Gauge struct {
	v      atomic.Int64
	labels string
}

// Set replaces the value.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add adds n (negative to subtract).
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

func (g *Gauge) render(w io.Writer, name string) {
	fmt.Fprintf(w, "%s%s %d\n", name, g.labels, g.v.Load())
}

// Gauge registers (or returns the existing) gauge under name+labels.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	f := r.family(name, help, "gauge")
	ls := renderLabels(labels)
	return f.add(ls, &Gauge{labels: ls}).(*Gauge)
}

// --- func metrics --------------------------------------------------------

// funcSeries samples a callback at scrape time — the bridge from
// existing mutex-guarded counters (store, gate, engine, backends) onto
// the scrape surface without double bookkeeping on the hot path.
type funcSeries struct {
	labels string
	intFn  func() uint64
	fltFn  func() float64
}

func (s *funcSeries) render(w io.Writer, name string) {
	if s.intFn != nil {
		fmt.Fprintf(w, "%s%s %d\n", name, s.labels, s.intFn())
		return
	}
	fmt.Fprintf(w, "%s%s %s\n", name, s.labels, formatFloat(s.fltFn()))
}

// CounterFunc registers a counter whose value is sampled from fn at
// scrape time.
func (r *Registry) CounterFunc(name, help string, fn func() uint64, labels ...Label) {
	f := r.family(name, help, "counter")
	ls := renderLabels(labels)
	f.add(ls, &funcSeries{labels: ls, intFn: fn})
}

// GaugeFunc registers a gauge whose value is sampled from fn at scrape
// time.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...Label) {
	f := r.family(name, help, "gauge")
	ls := renderLabels(labels)
	f.add(ls, &funcSeries{labels: ls, fltFn: fn})
}

// --- histogram -----------------------------------------------------------

// Histogram is a fixed-bucket latency histogram. Observe is a bounded
// linear scan plus two atomic adds — no allocation, no locking — so it
// sits directly on the request path.
type Histogram struct {
	bounds []float64 // ascending upper bounds, in seconds
	counts []atomic.Uint64
	sumNs  atomic.Int64
	labels string
	// lePrefix is the rendered label set minus its closing brace, ready
	// for the per-bucket le label to be appended.
	lePrefix string
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	s := d.Seconds()
	i := 0
	for i < len(h.bounds) && s > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.sumNs.Add(int64(d))
}

// Count returns the total number of observations.
func (h *Histogram) Count() uint64 {
	var n uint64
	for i := range h.counts {
		n += h.counts[i].Load()
	}
	return n
}

func (h *Histogram) render(w io.Writer, name string) {
	var cum uint64
	for i, b := range h.bounds {
		cum += h.counts[i].Load()
		fmt.Fprintf(w, "%s_bucket%sle=%q} %d\n", name, h.lePrefix, formatFloat(b), cum)
	}
	cum += h.counts[len(h.bounds)].Load()
	fmt.Fprintf(w, "%s_bucket%sle=\"+Inf\"} %d\n", name, h.lePrefix, cum)
	fmt.Fprintf(w, "%s_sum%s %s\n", name, h.labels, formatFloat(float64(h.sumNs.Load())/1e9))
	fmt.Fprintf(w, "%s_count%s %d\n", name, h.labels, cum)
}

// Histogram registers (or returns the existing) histogram under
// name+labels with the given ascending bucket bounds in seconds.
func (r *Registry) Histogram(name, help string, bounds []float64, labels ...Label) *Histogram {
	f := r.family(name, help, "histogram")
	ls := renderLabels(labels)
	prefix := "{"
	if ls != "" {
		prefix = strings.TrimSuffix(ls, "}") + ","
	}
	h := &Histogram{
		bounds:   append([]float64(nil), bounds...),
		counts:   make([]atomic.Uint64, len(bounds)+1),
		labels:   ls,
		lePrefix: prefix,
	}
	return f.add(ls, h).(*Histogram)
}

// --- rendering -----------------------------------------------------------

// WriteText renders every family in the Prometheus text exposition
// format, in registration order.
func (r *Registry) WriteText(w io.Writer) {
	r.mu.Lock()
	fams := append([]*family(nil), r.families...)
	r.mu.Unlock()
	for _, f := range fams {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", f.name, f.help, f.name, f.typ)
		f.mu.Lock()
		order := append([]series(nil), f.order...)
		f.mu.Unlock()
		for _, s := range order {
			s.render(w, f.name)
		}
	}
}

// Handler serves the registry as GET /metrics.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		var buf bytes.Buffer
		r.WriteText(&buf)
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		w.Write(buf.Bytes())
	})
}

// renderLabels renders a label set as {k="v",...}, sorted by key so the
// same set always produces the same series identity.
func renderLabels(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	ls := append([]Label(nil), labels...)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range ls {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(l.Value))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// escapeLabel escapes a label value per the exposition format.
func escapeLabel(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

// formatFloat renders a float the way Prometheus expects: no exponent
// for the magnitudes bucket bounds use, minimal digits.
func formatFloat(f float64) string {
	return strconv.FormatFloat(f, 'g', -1, 64)
}
