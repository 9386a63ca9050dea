package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"svwsim/internal/pipeline"
	"svwsim/internal/sim"
	"svwsim/internal/sim/engine"
)

// Studies are a sweep plus a reduce: their jobs resolve as ordinary store
// cells, shared with sweeps, and the decoded cell results reduce to the
// same report svwexp prints.

// reportJSON is the `svwexp -json` encoding of a study: the descriptor run
// in-process on its own engine, its report written as svwexp writes it.
func reportJSON(t *testing.T, s sim.Study[sim.Report]) []byte {
	t.Helper()
	rep, err := sim.Run(context.Background(), engine.New(2), s)
	if err != nil {
		t.Fatal(err)
	}
	var b bytes.Buffer
	if err := rep.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// TestStudyBodiesMatchSvwexp: for every study svwd serves, in exact and
// sampled mode, the body is byte-identical to the svwexp encoding of the
// same parameters — breakdowns and elimination rates included.
func TestStudyBodiesMatchSvwexp(t *testing.T) {
	benches := []string{"gcc"}
	figure := func(fig int, insts uint64, spec pipeline.SampleSpec) sim.Study[sim.Report] {
		s, err := sim.FigureStudy(fig, benches, insts, spec)
		if err != nil {
			t.Fatal(err)
		}
		return sim.Reported(s)
	}
	modes := []struct {
		name  string
		insts uint64
		query string
		spec  pipeline.SampleSpec
	}{
		{"exact", 4_000, "", pipeline.SampleSpec{}},
		{"sampled", 20_000, "&sample=500:500:4000", pipeline.SampleSpec{Warmup: 500, Detail: 500, Period: 4_000}},
	}
	for _, m := range modes {
		s := newTestServer(Options{})
		cases := []struct {
			path string
			want sim.Study[sim.Report]
		}{
			{"ladder?fig=5", figure(5, m.insts, m.spec)},
			{"ladder?fig=6", figure(6, m.insts, m.spec)},
			{"ladder?fig=7", figure(7, m.insts, m.spec)},
			{"fig8?x=", sim.Reported(sim.Fig8Study(benches, m.insts, m.spec))},
			{"ssn?x=", sim.Reported(sim.SSNWidthStudy(benches, []int{8, 10, 12, 16, 0}, m.insts, m.spec))},
			{"ssbf?x=", sim.Reported(sim.SSBFUpdateStudy(benches, m.insts, m.spec))},
		}
		for _, c := range cases {
			path := fmt.Sprintf("/v1/studies/%s&benches=gcc&insts=%d%s", c.path, m.insts, m.query)
			w := do(s, http.MethodGet, path, "", nil)
			if w.Code != http.StatusOK {
				t.Fatalf("%s %s: HTTP %d: %s", m.name, path, w.Code, w.Body)
			}
			if want := reportJSON(t, c.want); !bytes.Equal(w.Body.Bytes(), want) {
				t.Fatalf("%s %s differs from svwexp -json:\n%s\nwant\n%s", m.name, path, w.Body, want)
			}
		}
	}
	// Fig. 6 and 7 carry their shaded split; Fig. 7 its elimination rates.
	s := newTestServer(Options{})
	w := do(s, http.MethodGet, "/v1/studies/ladder?fig=7&benches=gcc&insts=4000", "", nil)
	for _, field := range []string{`"breakdown"`, `"elim_pct"`} {
		if !strings.Contains(w.Body.String(), field) {
			t.Errorf("fig 7 study lacks %s: %s", field, w.Body)
		}
	}
}

// TestStudyMatrixBounded: a study's matrix is held to MaxSweepJobs like a
// sweep's — an oversized ?bits= or ?benches= list is a 400 that runs no
// engine job.
func TestStudyMatrixBounded(t *testing.T) {
	s := newTestServer(Options{})
	bits := strings.TrimSuffix(strings.Repeat("8,", DefaultMaxSweepJobs+1), ",")
	if w := do(s, http.MethodGet, "/v1/studies/ssn?benches=gcc&insts=4000&bits="+bits, "", nil); w.Code != http.StatusBadRequest {
		t.Fatalf("over-limit bits list: HTTP %d, want 400", w.Code)
	}

	small := newTestServer(Options{MaxSweepJobs: 8})
	for _, path := range []string{
		"/v1/studies/ssn?benches=gcc,twolf&insts=4000",          // 5 widths x 2 = 10
		"/v1/studies/ladder?fig=5&benches=gcc,twolf&insts=4000", // 5 rungs x 2 = 10
		"/v1/studies/fig8?benches=gcc,twolf&insts=4000",         // 6 variants x 2 = 12
	} {
		if w := get(small, path); w.Code != http.StatusBadRequest || !strings.Contains(w.Body.String(), "limit is 8") {
			t.Fatalf("%s: HTTP %d %s, want the matrix-limit 400", path, w.Code, w.Body)
		}
	}
	for _, srv := range []*Server{s, small} {
		if m := srv.engineStats(); m.MemoMisses != 0 || m.MemoHits != 0 {
			t.Fatalf("rejected studies reached the engine: %+v", m)
		}
	}
	if w := get(small, "/v1/studies/ssbf?benches=gcc,twolf&insts=4000"); w.Code != http.StatusOK {
		t.Fatalf("in-limit study: HTTP %d: %s", w.Code, w.Body)
	}
}

// get is a GET through the handler.
func get(s *Server, path string) *httptest.ResponseRecorder {
	return do(s, http.MethodGet, path, "", nil)
}

// TestStudyCellsKeepRequesterNames pins the display-name contract in both
// orders. Store keys ignore display names, and the §3.6 SSN study at 16
// bits is the registry's ssq+svw machine, so the two share a cell.
func TestStudyCellsKeepRequesterNames(t *testing.T) {
	s := newTestServer(Options{})
	if w := get(s, fmt.Sprintf("/v1/studies/ssn?bits=16&benches=gcc&insts=%d", testInsts)); w.Code != http.StatusOK {
		t.Fatalf("ssn study: HTTP %d: %s", w.Code, w.Body)
	}
	memo := s.engineStats()
	want := directRunBody(t, "ssq+svw", "gcc")
	sweep := fmt.Sprintf(`{"configs":["ssq+svw"],"benches":["gcc"],"insts":%d}`, testInsts)
	w := do(s, http.MethodPost, "/v1/sweep", sweep, nil)
	if !bytes.Equal(w.Body.Bytes(), want) {
		t.Fatalf("sweep after the study differs from the direct encoding:\n%s", w.Body)
	}
	if !strings.Contains(w.Body.String(), `"Config": "ssq+SVW+UPD"`) || strings.Contains(w.Body.String(), "ssn16") {
		t.Fatalf("sweep served the study's display name:\n%s", w.Body)
	}
	run := fmt.Sprintf(`{"config":"ssq+svw","bench":"gcc","insts":%d}`, testInsts)
	if w := do(s, http.MethodPost, "/v1/run", run, nil); !bytes.Equal(w.Body.Bytes(), want) {
		t.Fatalf("run after the study differs from the direct encoding:\n%s", w.Body)
	}
	w = do(s, http.MethodPost, "/v1/sweep", sweep, map[string]string{"Accept": "text/event-stream"})
	var ev SweepEvent
	if err := json.Unmarshal(parseSSE(t, w.Body.String())[0].Data, &ev); err != nil {
		t.Fatal(err)
	}
	var got, ref bytes.Buffer
	json.Compact(&got, ev.Result)
	json.Compact(&ref, want)
	if !ev.Cached || got.String() != ref.String() {
		t.Fatalf("streamed cell (cached=%v) differs from the direct encoding: %s", ev.Cached, got.String())
	}
	if m := s.engineStats(); m != memo {
		t.Fatalf("the shared cell was recomputed: engine %+v -> %+v", memo, m)
	}

	// The reverse: a study served from cells sweeps wrote equals the same
	// study computed cold, and runs no engine job.
	path := fmt.Sprintf("/v1/studies/ladder?fig=6&benches=gcc,twolf&insts=%d", testInsts)
	cold := get(newTestServer(Options{}), path)
	if cold.Code != http.StatusOK {
		t.Fatalf("cold study: HTTP %d: %s", cold.Code, cold.Body)
	}
	warm := newTestServer(Options{})
	sweep = fmt.Sprintf(`{"configs":["base-ssq","ssq","ssq+svw-upd","ssq+svw","ssq+perfect"],"benches":["gcc","twolf"],"insts":%d}`, testInsts)
	if w := do(warm, http.MethodPost, "/v1/sweep", sweep, nil); w.Code != http.StatusOK {
		t.Fatalf("warming sweep: HTTP %d: %s", w.Code, w.Body)
	}
	memo, before := warm.engineStats(), cacheStats(t, warm)
	if w := get(warm, path); !bytes.Equal(w.Body.Bytes(), cold.Body.Bytes()) {
		t.Fatalf("study from sweep-written cells differs from the cold study:\n%s\nwant\n%s", w.Body, cold.Body)
	}
	if m := warm.engineStats(); m != memo {
		t.Fatalf("study over warm cells ran the engine: %+v -> %+v", memo, m)
	}
	if after := cacheStats(t, warm); after.Hits-before.Hits != 10 || after.Misses != before.Misses {
		t.Fatalf("study over warm cells: %+v -> %+v, want 10 hits and no misses", before, after)
	}
}
