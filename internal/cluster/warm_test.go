package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"

	"svwsim/internal/api"
	"svwsim/internal/pipeline"
	"svwsim/internal/raceflag"
	"svwsim/internal/server"
	"svwsim/internal/sim"
	"svwsim/internal/sim/engine"
)

// The warm path reuses its large buffers: a buffered sweep's body and the
// owner replies the coordinator reads come from one pool, and a reply goes back
// only after the response whose cells alias it has been written. These
// tests hold every reply byte-identical under concurrent reuse and pin
// what a warm sweep allocates.

// newDiskFabric is a coordinator over n svwd backends, each with a disk tier
// under a memory tier of cacheEntries, so warm cells come from both tiers
// and disk hits are promoted or deferred.
func newDiskFabric(t *testing.T, n, cacheEntries int) *fabric {
	t.Helper()
	f := &fabric{}
	var urls []string
	for i := 0; i < n; i++ {
		srv, err := server.New(server.Options{Workers: 2, MaxConcurrentJobs: -1,
			CacheEntries: cacheEntries, StoreDir: t.TempDir()})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(srv.Handler())
		t.Cleanup(ts.Close)
		f.backends = append(f.backends, ts)
		urls = append(urls, ts.URL)
	}
	f.c = newCoordinator(t, server.Options{Peers: urls})
	return f
}

// ladderReport is `svwexp -json -fig 5` over benches at testInsts.
func ladderReport(t *testing.T, benches []string) []byte {
	t.Helper()
	fs, err := sim.FigureStudy(5, benches, testInsts, pipeline.SampleSpec{})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := sim.Run(context.Background(), engine.New(2), sim.Reported(fs))
	if err != nil {
		t.Fatal(err)
	}
	var b bytes.Buffer
	if err := rep.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// TestPooledRepliesStayIntact drives concurrent warm sweeps over different
// bench groups, an SSE sweep and two studies through the coordinator over two backends
// with disk tiers, and requires every reply byte-identical to the direct
// MarshalResult encodings. A reply buffer handed back to the pool while a
// response still aliases it is refilled by another request's forward —
// and, under the race detector, overwritten on release — so the garbled
// cells show up here.
func TestPooledRepliesStayIntact(t *testing.T) {
	f := newDiskFabric(t, 2, 8)
	configs := sim.ConfigNames()
	groups := [][]string{{"gcc", "twolf"}, {"mcf", "vortex"}}
	want := make([][]byte, len(groups))
	for i, g := range groups {
		want[i] = refSweepBody(t, configs, g)
		if w := f.do("POST", "/v1/sweep", sweepBody(configs, g), nil); !bytes.Equal(w.Body.Bytes(), want[i]) {
			t.Fatalf("cold sweep of %v: HTTP %d, body differs from the reference", g, w.Code)
		}
	}
	studyPath := fmt.Sprintf("/v1/studies/ladder?fig=5&benches=gcc,twolf&insts=%d", testInsts)
	studyWant := ladderReport(t, groups[0])
	sseGroup := groups[1]
	sseWant := make([][]byte, 0, len(configs)*len(sseGroup))
	for _, c := range configs {
		for _, b := range sseGroup {
			var compact bytes.Buffer
			if err := json.Compact(&compact, refRunBody(t, c, b)); err != nil {
				t.Fatal(err)
			}
			sseWant = append(sseWant, compact.Bytes())
		}
	}

	const rounds = 6
	var wg sync.WaitGroup
	run := func(check func(round int) error) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				if err := check(r); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	for g := 0; g < 4; g++ {
		run(func(r int) error {
			i := (g + r) % len(groups)
			w := f.do("POST", "/v1/sweep", sweepBody(configs, groups[i]), nil)
			if w.Code != http.StatusOK || !bytes.Equal(w.Body.Bytes(), want[i]) {
				return fmt.Errorf("sweeper %d round %d (%v): HTTP %d, body differs from the reference", g, r, groups[i], w.Code)
			}
			return nil
		})
	}
	run(func(r int) error {
		w := f.do("POST", "/v1/sweep", sweepBody(configs, sseGroup), map[string]string{"Accept": "text/event-stream"})
		events, err := api.ParseEvents(w.Body)
		if err != nil {
			return err
		}
		if len(events) != len(sseWant)+1 {
			return fmt.Errorf("SSE round %d: %d events, want %d results and done", r, len(events), len(sseWant))
		}
		for i, want := range sseWant {
			var ev api.SweepEvent
			if err := json.Unmarshal(events[i].Data, &ev); err != nil {
				return fmt.Errorf("SSE round %d event %d: %v", r, i, err)
			}
			if !bytes.Equal(ev.Result, want) {
				return fmt.Errorf("SSE round %d event %d: result differs from the reference", r, i)
			}
		}
		return nil
	})
	for g := 0; g < 2; g++ {
		run(func(r int) error {
			if w := f.do("GET", studyPath, "", nil); w.Code != http.StatusOK || !bytes.Equal(w.Body.Bytes(), studyWant) {
				return fmt.Errorf("study %d round %d: HTTP %d, body differs from svwexp's", g, r, w.Code)
			}
			return nil
		})
	}
	wg.Wait()

	// Each backend holds about 60 results under an 8-entry memory tier, so
	// warm reads took disk hits the tier did not promote; the coordinator sums them
	// like every other cache counter.
	if st := f.stats(t); st.Cache.PromotionsDeferred == 0 || st.Cache.DiskHits == 0 {
		t.Fatalf("pool stats: %d disk hits, %d deferred promotions, want both > 0",
			st.Cache.DiskHits, st.Cache.PromotionsDeferred)
	}
}

// warmBenches are the four benches of the 60-cell warm sweep (every
// registry machine on each), the sweep perfbench's fabric-serve repeats.
var warmBenches = []string{"gcc", "twolf", "mcf", "vortex"}

// warmFabric is a coordinator over two memory-tier backends with the 60-cell
// sweep computed once. Its sweep serves that sweep again and returns the
// status; the reply is discarded unread, so what a sweep allocates is the
// servers' alone, not a recorder's copy of the 84 KB body.
func warmFabric(tb testing.TB) (sweep func() int) {
	f := newFabric(tb, 2, server.Options{}, nil)
	body := sweepBody(sim.ConfigNames(), warmBenches)
	if w := f.do("POST", "/v1/sweep", body, nil); w.Code != http.StatusOK {
		tb.Fatalf("cold sweep: HTTP %d: %s", w.Code, w.Body)
	}
	h := f.c.Handler()
	return func() int {
		w := &discardWriter{header: http.Header{}}
		h.ServeHTTP(w, httptest.NewRequest("POST", "/v1/sweep", strings.NewReader(body)))
		return w.code
	}
}

// discardWriter is a ResponseWriter that keeps the status and drops the
// body.
type discardWriter struct {
	header http.Header
	code   int
}

func (w *discardWriter) Header() http.Header         { return w.header }
func (w *discardWriter) WriteHeader(code int)        { w.code = code }
func (w *discardWriter) Write(b []byte) (int, error) { return len(b), nil }

// maxWarmSweepBytesPerCell bounds the heap bytes a warm 60-cell sweep
// through the coordinator over two backends allocates per cell, in all three
// servers' code together (they share this test's heap): about 1.6 KB at
// this writing, against 8.9 KB when every hop copied each cell's
// configuration and every buffered body and owner reply was a fresh
// buffer.
const maxWarmSweepBytesPerCell = 2560

// TestWarmSweepBytesPerCell pins maxWarmSweepBytesPerCell. Allocation
// bytes do not depend on the host's speed, so a change that copies
// configurations or buffers on the warm path again fails here on any
// machine.
func TestWarmSweepBytesPerCell(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("the race detector perturbs allocations")
	}
	sweep := warmFabric(t)
	per := sweepBytes(20, func() {
		if code := sweep(); code != http.StatusOK {
			t.Fatalf("warm sweep: HTTP %d", code)
		}
	}) / 60
	if per > maxWarmSweepBytesPerCell {
		t.Fatalf("warm sweep: %d bytes allocated per cell, want at most %d", per, maxWarmSweepBytesPerCell)
	}
}

// sweepBytes is the heap bytes one call of sweep allocates, averaged over
// n calls after one warm-up call.
func sweepBytes(n int, sweep func()) uint64 {
	sweep()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		sweep()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / uint64(n)
}

// BenchmarkWarmSweep serves the warm 60-cell sweep through the coordinator over two
// backends: the fabric's warm path, plan to written reply, at every hop.
// Its B/op is the heap bytes of all three servers together.
func BenchmarkWarmSweep(b *testing.B) {
	sweep := warmFabric(b)
	b.ReportAllocs()
	for b.Loop() {
		if code := sweep(); code != http.StatusOK {
			b.Fatalf("warm sweep: HTTP %d", code)
		}
	}
}
