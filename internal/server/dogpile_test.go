package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"svwsim/internal/pipeline"
	"svwsim/internal/sim"
	"svwsim/internal/sim/engine"
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
	if m := s.engineStats(); m.MemoMisses != 1 {
		t.Errorf("engine executed %d times for %d identical requests, want 1", m.MemoMisses, n)
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
	if m := s.engineStats(); m.MemoMisses != uint64(cells) {
		t.Errorf("engine executed %d jobs for %d identical sweeps, want %d (one per cell)",
			m.MemoMisses, n, cells)
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

// failedLeader sets up the failed-leader path: a resolve leads the cell
// ssq/gcc behind a blocker job on a one-worker engine, n /v1/run requests
// for that cell coalesce on its flight, and the leader's request is
// cancelled before the cell starts. Before the blocker is released and
// the cell's flight fails, hold runs (with the leader's gate units already
// returned). It returns the n waiters' responses.
func failedLeader(t *testing.T, s *Server, n int, hold func()) []*httptest.ResponseRecorder {
	t.Helper()
	started, unblock := make(chan struct{}), make(chan struct{})
	var once sync.Once
	blocker, _ := sim.ConfigByName("base")
	blocker.TraceCommit = func(pipeline.TraceRecord) {
		once.Do(func() {
			close(started)
			<-unblock
		})
	}
	cell, _ := sim.ConfigByName("ssq")
	jobs := []engine.Job{
		{Config: blocker, Bench: "gcc", Insts: testInsts},
		{Config: cell, Bench: "gcc", Insts: testInsts},
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	leaderDone := make(chan error, 1)
	go func() {
		_, err := s.resolve(ctx, httptest.NewRequest("POST", "/v1/sweep", nil), jobs, nil, nil)
		leaderDone <- err
	}()
	<-started // the blocker runs; the cell is claimed and queued behind it

	body := fmt.Sprintf(`{"config":"ssq","bench":"gcc","insts":%d}`, testInsts)
	results := make([]*httptest.ResponseRecorder, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i] = do(s, "POST", "/v1/run", body, nil)
		}(i)
	}
	deadline := time.Now().Add(10 * time.Second)
	for s.store.Stats().Coalesced < uint64(n) {
		if time.Now().After(deadline) {
			close(unblock)
			t.Fatalf("coalesced = %d, want %d waiters on the leader's flight", s.store.Stats().Coalesced, n)
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	if err := <-leaderDone; !errors.Is(err, context.Canceled) {
		t.Errorf("leader resolve err = %v, want context.Canceled", err)
	}
	hold()
	close(unblock)
	wg.Wait()
	return results
}

// TestFailedLeaderCellRunsOnce: when the request leading a cell is
// cancelled before the cell starts, the N requests waiting on it claim
// the cell again — one leads, the rest wait — so it executes once, and
// every waiter still gets the svwsim -json bytes.
func TestFailedLeaderCellRunsOnce(t *testing.T) {
	s := newTestServer(Options{Workers: 1})
	const n = 5
	results := failedLeader(t, s, n, func() {})

	want := directRunBody(t, "ssq", "gcc")
	for i, w := range results {
		if w.Code != http.StatusOK {
			t.Fatalf("waiter %d: HTTP %d: %s", i, w.Code, w.Body)
		}
		if !bytes.Equal(w.Body.Bytes(), want) {
			t.Fatalf("waiter %d: body differs from the svwsim -json encoding", i)
		}
	}
	// The blocker is a traced job, which the engine runs outside its memo
	// counters: every counted execution is the cell's.
	if m := s.engineStats(); m.MemoMisses != 1 {
		t.Errorf("cell executed %d times across %d waiters, want 1", m.MemoMisses, n)
	}
	if st := s.store.Stats(); st.Misses != 1 {
		t.Errorf("store misses = %d, want 1 (one waiter led the retry)", st.Misses)
	}
}

// TestFailedLeaderRetryIsAdmitted: the waiter that claims a failed cell
// again needs a gate unit like any leader. With the gate saturated the
// retry is refused — every waiter gets a 429 — and the cell never runs.
func TestFailedLeaderRetryIsAdmitted(t *testing.T) {
	const capacity = 4
	s := newTestServer(Options{Workers: 1, MaxConcurrentJobs: capacity})
	var release func()
	results := failedLeader(t, s, 3, func() {
		var ok bool
		if release, ok = s.gate.tryAcquire("", capacity); !ok {
			t.Fatal("could not occupy the gate")
		}
	})
	defer release()

	for i, w := range results {
		if w.Code != http.StatusTooManyRequests {
			t.Fatalf("waiter %d: HTTP %d, want 429 (%s)", i, w.Code, w.Body)
		}
		if w.Header().Get("Retry-After") == "" {
			t.Errorf("waiter %d: 429 without Retry-After", i)
		}
	}
	if m := s.engineStats(); m.MemoMisses != 0 {
		t.Errorf("engine executed %d jobs past a saturated gate, want 0", m.MemoMisses)
	}
	if st := s.gate.stats(); st.Rejected == 0 {
		t.Error("the gate never refused the retry")
	}
}
