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

	"svwsim/internal/api"
	"svwsim/internal/raceflag"
	"svwsim/internal/sim"
	"svwsim/internal/sim/engine"
	"svwsim/internal/store"
)

// TestSweepCellsFormMatchesCLI: a cells-form sweep over a list that is no
// config × bench product answers the `svwsim -json` encoding of exactly
// those cells, in list order, X-Svwd-Cache names each cell's tier, and
// X-Svwd-Sample names the exact spec the cells resolved to.
func TestSweepCellsFormMatchesCLI(t *testing.T) {
	s := newTestServer(Options{})
	warm := fmt.Sprintf(`{"config":"ssq","bench":"gcc","insts":%d}`, testInsts)
	if w := do(s, "POST", "/v1/run", warm, nil); w.Code != http.StatusOK {
		t.Fatalf("warm-up run HTTP %d", w.Code)
	}
	cells := []api.SweepCell{{Config: "ssq+svw", Bench: "twolf"}, {Config: "ssq", Bench: "gcc"}, {Config: "nlq", Bench: "twolf"}}
	var want []byte
	for _, c := range cells {
		want = append(want, directRunBody(t, c.Config, c.Bench)...)
	}
	body, _ := json.Marshal(api.SweepRequest{Cells: cells, Insts: testInsts})
	w := do(s, "POST", "/v1/sweep", string(body), nil)
	if w.Code != http.StatusOK {
		t.Fatalf("HTTP %d: %s", w.Code, w.Body)
	}
	if !bytes.Equal(w.Body.Bytes(), want) {
		t.Fatal("cells-form sweep differs from the svwsim -json encoding of its cells")
	}
	if h, wantH := w.Header().Get(api.CacheHeader), "miss,memory,miss"; h != wantH {
		t.Fatalf("%s = %q, want %q", api.CacheHeader, h, wantH)
	}
	if h := w.Header().Get(api.SampleHeader); h != "exact" {
		t.Fatalf("%s = %q, want exact", api.SampleHeader, h)
	}
}

// TestSweepCellsFormValidation: a malformed cells-form sweep is a 400
// before any engine work.
func TestSweepCellsFormValidation(t *testing.T) {
	s := newTestServer(Options{MaxSweepJobs: 2})
	for _, body := range []string{
		`{"configs":["ssq"],"benches":["gcc"],"cells":[{"config":"ssq","bench":"gcc"}]}`,
		`{"configs":["ssq"],"cells":[{"config":"ssq","bench":"gcc"}]}`,
		`{"cells":[]}`,
		`{"cells":[{"config":"ssq","bench":"gcc"},{"config":"nlq","bench":"gcc"},{"config":"rle","bench":"gcc"}]}`,
		`{"cells":[{"config":"ssq","bench":"gcc"},{"config":"no-such","bench":"gcc"}]}`,
		`{"cells":[{"config":"ssq","bench":"gcc"},{"config":"nlq","bench":"no-such"}]}`,
	} {
		if w := do(s, "POST", "/v1/sweep", body, nil); w.Code != http.StatusBadRequest {
			t.Errorf("%s: HTTP %d, want 400", body, w.Code)
		}
	}
	if m := s.engineStats(); m.MemoHits+m.MemoMisses != 0 {
		t.Fatalf("engine ran %d jobs for rejected sweeps", m.MemoHits+m.MemoMisses)
	}
	if st := cacheStats(t, s); st.Hits+st.Misses != 0 {
		t.Fatalf("rejected sweeps moved the store counters: %+v", st)
	}
}

// TestSweepSSEOpensBeforeColdCell: the event stream's headers go out once
// the request is admitted, not when the first cell is ready, so a client
// whose header timeout is shorter than one cold cell is not cut off.
func TestSweepSSEOpensBeforeColdCell(t *testing.T) {
	// Long enough that the cell is still running when the headers land.
	insts := uint64(1_000_000)
	if raceflag.Enabled {
		insts = 300_000
	}
	s := newTestServer(Options{Workers: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	body := fmt.Sprintf(`{"configs":["ssq"],"benches":["gcc"],"insts":%d}`, insts)
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/sweep", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Accept", "text/event-stream")
	res, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	if res.StatusCode != http.StatusOK || res.Header.Get("Content-Type") != "text/event-stream" {
		t.Fatalf("HTTP %d, Content-Type %q", res.StatusCode, res.Header.Get("Content-Type"))
	}
	cfg, _ := sim.ConfigByName("ssq")
	if _, origin := s.store.Get(engine.Fingerprint(cfg, "gcc", insts)); origin != store.OriginMiss {
		t.Fatal("the stream opened only after its cold cell had finished")
	}
}
