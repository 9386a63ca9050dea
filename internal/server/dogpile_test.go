package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
)

// The cold-miss dogpile regression suite: N concurrent identical cold
// requests must produce exactly one engine execution, with the other N-1
// coalescing on the leader's flight (store.BeginFlight).

// TestRunDogpile fires N identical cold /v1/run requests concurrently.
func TestRunDogpile(t *testing.T) {
	s := newTestServer(Options{})
	const n = 6
	body := fmt.Sprintf(`{"config":"base","bench":"gcc","insts":%d}`, testInsts)
	results := make([]*httptest.ResponseRecorder, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i] = do(s, "POST", "/v1/run", body, nil)
		}(i)
	}
	wg.Wait()

	want := directRunBody(t, "base", "gcc")
	for i, w := range results {
		if w.Code != http.StatusOK {
			t.Fatalf("request %d: HTTP %d: %s", i, w.Code, w.Body)
		}
		if !bytes.Equal(w.Body.Bytes(), want) {
			t.Fatalf("request %d: body differs from the svwsim -json encoding", i)
		}
	}
	if m := s.eng.Memo(); m.Misses != 1 {
		t.Errorf("engine executed %d times for %d identical requests, want 1", m.Misses, n)
	}
	st := s.store.Stats()
	if st.Misses != 1 {
		t.Errorf("store misses = %d, want 1 (only the leader computes)", st.Misses)
	}
	// Each non-leader either coalesced on the flight or (having arrived
	// after the leader finished) hit the store at its probe; both together
	// must cover all n-1, and with a simultaneous launch against a
	// millisecond-scale simulation at least one coalesces.
	if st.Coalesced+st.Hits != n-1 {
		t.Errorf("coalesced=%d hits=%d, want their sum = %d", st.Coalesced, st.Hits, n-1)
	}
	if st.Coalesced == 0 {
		t.Errorf("no request coalesced across %d concurrent identical misses", n)
	}
}

// TestSweepDogpile is the same regression for whole sweep matrices: the
// per-cell flights must coalesce across concurrent identical sweeps.
func TestSweepDogpile(t *testing.T) {
	s := newTestServer(Options{})
	configs := []string{"base", "ssq+svw"}
	benches := []string{"gcc", "twolf"}
	cells := len(configs) * len(benches)
	body := fmt.Sprintf(`{"configs":["base","ssq+svw"],"benches":["gcc","twolf"],"insts":%d}`, testInsts)

	const n = 4
	results := make([]*httptest.ResponseRecorder, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i] = do(s, "POST", "/v1/sweep", body, nil)
		}(i)
	}
	wg.Wait()

	var want []byte
	for _, c := range configs {
		for _, b := range benches {
			want = append(want, directRunBody(t, c, b)...)
		}
	}
	for i, w := range results {
		if w.Code != http.StatusOK {
			t.Fatalf("sweep %d: HTTP %d: %s", i, w.Code, w.Body)
		}
		if !bytes.Equal(w.Body.Bytes(), want) {
			t.Fatalf("sweep %d: body differs from the svwsim -json encoding", i)
		}
	}
	if m := s.eng.Memo(); m.Misses != uint64(cells) {
		t.Errorf("engine executed %d jobs for %d identical sweeps, want %d (one per cell)",
			m.Misses, n, cells)
	}
	st := s.store.Stats()
	if st.Misses != uint64(cells) {
		t.Errorf("store misses = %d, want %d (each cell computed by one leader)", st.Misses, cells)
	}
	if got, wantSum := st.Coalesced+st.Hits, uint64((n-1)*cells); got != wantSum {
		t.Errorf("coalesced=%d hits=%d, want their sum = %d", st.Coalesced, st.Hits, wantSum)
	}
	if st.Coalesced == 0 {
		t.Errorf("no cell coalesced across %d concurrent identical sweeps", n)
	}
}

// TestOverlappingSweepsNoDeadlock crosses two concurrent sweeps that each
// own cells the other coalesces on — the shape that would deadlock if a
// sweep waited on foreign flights before publishing its own results. One
// side streams (owned flights complete in the progress callback), the
// other buffers (owned flights complete before the assembly wait loop).
func TestOverlappingSweepsNoDeadlock(t *testing.T) {
	s := newTestServer(Options{})
	mkBody := func(configs string) string {
		return fmt.Sprintf(`{"configs":[%s],"benches":["gcc","twolf"],"insts":%d}`, configs, testInsts)
	}
	var wg sync.WaitGroup
	var buffered, streamed *httptest.ResponseRecorder
	wg.Add(2)
	go func() {
		defer wg.Done()
		buffered = do(s, "POST", "/v1/sweep", mkBody(`"base","ssq"`), nil)
	}()
	go func() {
		defer wg.Done()
		streamed = do(s, "POST", "/v1/sweep", mkBody(`"ssq","base"`),
			map[string]string{"Accept": "text/event-stream"})
	}()
	wg.Wait()

	if buffered.Code != http.StatusOK {
		t.Fatalf("buffered sweep: HTTP %d: %s", buffered.Code, buffered.Body)
	}
	var want []byte
	for _, c := range []string{"base", "ssq"} {
		for _, b := range []string{"gcc", "twolf"} {
			want = append(want, directRunBody(t, c, b)...)
		}
	}
	if !bytes.Equal(buffered.Body.Bytes(), want) {
		t.Fatal("buffered sweep body differs from the svwsim -json encoding")
	}
	if streamed.Code != http.StatusOK {
		t.Fatalf("streamed sweep: HTTP %d: %s", streamed.Code, streamed.Body)
	}
	events := parseSSE(t, streamed.Body.String())
	if len(events) != 5 { // 4 results + done
		t.Fatalf("streamed sweep emitted %d events, want 5", len(events))
	}
	if events[len(events)-1].Name != "done" {
		t.Fatalf("streamed sweep's last event is %q, want done", events[len(events)-1].Name)
	}
	// Cross-check the streamed payloads against the reference bodies in
	// the stream's own (ssq-major) order. SSE transport compacts the
	// embedded JSON, so compare compacted forms.
	compact := func(raw []byte) string {
		var buf bytes.Buffer
		if err := json.Compact(&buf, raw); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	i := 0
	for _, c := range []string{"ssq", "base"} {
		for _, b := range []string{"gcc", "twolf"} {
			var ev SweepEvent
			if err := json.Unmarshal(events[i].Data, &ev); err != nil {
				t.Fatalf("event %d: %v", i, err)
			}
			if ev.Error != "" {
				t.Fatalf("event %d (%s/%s): error %q", i, c, b, ev.Error)
			}
			if compact([]byte(ev.Result)) != compact(directRunBody(t, c, b)) {
				t.Fatalf("event %d (%s/%s): payload differs from reference", i, c, b)
			}
			i++
		}
	}
}
