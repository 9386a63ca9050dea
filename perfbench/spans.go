package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

// Spans are recorded by the benchmark's own code around each call into a
// layer: set-up, unit, Engine.Run, cell and window replays, fast-forward
// legs, store calls, handler calls and coordinator requests. They are kept
// in memory and written out when the run ends. A nil *recorder records
// nothing, so untraced runs pay one nil check per span.

// span is one recorded interval. Parent is an index into the recorder's
// span slice (-1 for a root); spans of one unit share Unit.
type span struct {
	Name   string        `json:"name"`
	Layer  string        `json:"layer"`
	Unit   int           `json:"unit"`
	Parent int           `json:"parent"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

type recorder struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
	units int
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// sp is an open span handle; the zero handle (from a nil recorder) is a
// no-op.
type sp struct {
	r   *recorder
	idx int
}

// now is the recorder's clock; spans starting at or after a mark select
// one phase of the run.
func (r *recorder) now() time.Duration { return time.Since(r.t0) }

// newUnit allocates a unit ID shared by the spans of one unit of work.
func (r *recorder) newUnit() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.units++
	return r.units
}

// start opens a span under parent (a zero handle = root) in unit.
func (r *recorder) start(name, layer string, unit int, parent sp) sp {
	if r == nil {
		return sp{}
	}
	p := -1
	if parent.r != nil {
		p = parent.idx
	}
	now := time.Since(r.t0)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{Name: name, Layer: layer, Unit: unit, Parent: p, Start: now, End: -1})
	return sp{r, len(r.spans) - 1}
}

// end closes the span and returns its duration (0 for a no-op handle).
func (s sp) end() time.Duration {
	if s.r == nil {
		return 0
	}
	now := time.Since(s.r.t0)
	s.r.mu.Lock()
	defer s.r.mu.Unlock()
	s.r.spans[s.idx].End = now
	return now - s.r.spans[s.idx].Start
}

// total returns how many closed spans are named name and their summed
// duration.
func (r *recorder) total(name string) (int, time.Duration) {
	r.mu.Lock()
	defer r.mu.Unlock()
	n, d := 0, time.Duration(0)
	for _, s := range r.spans {
		if s.Name == name && s.End >= 0 {
			n++
			d += s.End - s.Start
		}
	}
	return n, d
}

// selfTimes returns, per layer, the summed self time of the spans named
// by keep (nil = all): each span's duration minus the union of the
// intervals its children cover.
func (r *recorder) selfTimes(keep func(span) bool) map[string]time.Duration {
	r.mu.Lock()
	defer r.mu.Unlock()
	children := make(map[int][]int)
	for i, s := range r.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	out := map[string]time.Duration{}
	for i, s := range r.spans {
		if s.End < 0 || (keep != nil && !keep(s)) {
			continue
		}
		var iv [][2]time.Duration
		for _, c := range children[i] {
			cs := r.spans[c]
			if cs.End < 0 {
				continue
			}
			iv = append(iv, [2]time.Duration{max(cs.Start, s.Start), min(cs.End, s.End)})
		}
		out[s.Layer] += (s.End - s.Start) - covered(iv)
	}
	return out
}

// covered is the total length of the union of intervals.
func covered(iv [][2]time.Duration) time.Duration {
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	var total time.Duration
	var cur [2]time.Duration
	open := false
	for _, v := range iv {
		if v[1] <= v[0] {
			continue
		}
		switch {
		case !open:
			cur, open = v, true
		case v[0] > cur[1]:
			total += cur[1] - cur[0]
			cur = v
		case v[1] > cur[1]:
			cur[1] = v[1]
		}
	}
	if open {
		total += cur[1] - cur[0]
	}
	return total
}

// selfTable renders a per-layer self-time table for the spans keep
// selects, largest first.
func (r *recorder) selfTable(title string, keep func(span) bool) string {
	self := r.selfTimes(keep)
	var total time.Duration
	layers := make([]string, 0, len(self))
	for l, d := range self {
		layers = append(layers, l)
		total += d
	}
	sort.Slice(layers, func(a, b int) bool { return self[layers[a]] > self[layers[b]] })
	var sb strings.Builder
	fmt.Fprintf(&sb, "self time by layer, %s (total %.1f ms):", title, ms(total))
	for _, l := range layers {
		fmt.Fprintf(&sb, " %s=%.1fms(%.1f%%)", l, ms(self[l]), 100*float64(self[l])/float64(total))
	}
	return sb.String()
}

func (r *recorder) write(path string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	b, err := json.Marshal(struct {
		Spans []span `json:"spans"`
	}{r.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
