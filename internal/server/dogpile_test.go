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

// heldLeader starts a resolve that leads jobs behind a blocker on a
// one-worker engine (the server must run with Options.Workers 1). The
// blocker is a traced run of base/mcf, a cell no test here requests; it
// stalls in its first commit, so when heldLeader returns every job's
// flight is claimed by the leader and none has started. release lets the
// blocker (and then the jobs) run, cancel ends the leader's request, and
// done yields the leader's resolve error.
func heldLeader(t *testing.T, s *Server, jobs []engine.Job) (release, cancel func(), done <-chan error) {
	t.Helper()
	started, unblock := make(chan struct{}), make(chan struct{})
	var blocking, releasing sync.Once
	blocker, _ := sim.ConfigByName("base")
	blocker.TraceCommit = func(pipeline.TraceRecord) {
		blocking.Do(func() {
			close(started)
			<-unblock
		})
	}
	jobs = append([]engine.Job{{Config: blocker, Bench: "mcf", Insts: testInsts}}, jobs...)
	ctx, cancelCtx := context.WithCancel(context.Background())
	t.Cleanup(cancelCtx)
	release = func() { releasing.Do(func() { close(unblock) }) }
	t.Cleanup(release)
	leaderDone := make(chan error, 1)
	go func() {
		_, err := s.resolve(ctx, httptest.NewRequest("POST", "/v1/sweep", nil), planStudy(jobs), nil, nil)
		leaderDone <- err
	}()
	<-started
	return release, cancelCtx, leaderDone
}

// fire sends n identical requests concurrently; wait blocks until every
// response is in.
func fire(s *Server, n int, path, body string) (results []*httptest.ResponseRecorder, wait func()) {
	results = make([]*httptest.ResponseRecorder, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i] = do(s, "POST", path, body, nil)
		}(i)
	}
	return results, wg.Wait
}

// awaitCoalesced polls until want requests wait on flights they do not
// lead.
func awaitCoalesced(t *testing.T, s *Server, want uint64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for s.store.Stats().Coalesced < want {
		if time.Now().After(deadline) {
			t.Fatalf("coalesced = %d, want %d waiters on the leader's flights", s.store.Stats().Coalesced, want)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestRunDogpile: n identical cold /v1/run requests — a leader held before
// its cell starts, and n-1 followers — execute the cell once, and every
// follower coalesces on the leader's flight.
func TestRunDogpile(t *testing.T) {
	s := newTestServer(Options{Workers: 1})
	const n = 6
	cfg, _ := sim.ConfigByName("base")
	release, _, leaderDone := heldLeader(t, s, []engine.Job{{Config: cfg, Bench: "gcc", Insts: testInsts}})
	body := fmt.Sprintf(`{"config":"base","bench":"gcc","insts":%d}`, testInsts)
	results, wait := fire(s, n-1, "/v1/run", body)
	awaitCoalesced(t, s, n-1)
	release()
	wait()
	if err := <-leaderDone; err != nil {
		t.Fatalf("leader: %v", err)
	}

	want := directRunBody(t, "base", "gcc")
	for i, w := range results {
		if w.Code != http.StatusOK {
			t.Fatalf("request %d: HTTP %d: %s", i, w.Code, w.Body)
		}
		if !bytes.Equal(w.Body.Bytes(), want) {
			t.Fatalf("request %d: body differs from the svwsim -json encoding", i)
		}
	}
	// The blocker is a traced job, which the engine runs outside its memo
	// counters: every counted execution is the cell's.
	if m := s.engineStats(); m.MemoMisses != 1 {
		t.Errorf("engine executed %d times for %d identical requests, want 1", m.MemoMisses, n)
	}
	st := s.store.Stats()
	if st.Misses != 2 {
		t.Errorf("store misses = %d, want 2 (the leader's blocker and cell; no follower computes)", st.Misses)
	}
	if st.Coalesced != n-1 || st.Hits != 0 {
		t.Errorf("coalesced=%d hits=%d, want every one of the %d followers coalesced", st.Coalesced, st.Hits, n-1)
	}
}

// TestSweepDogpile is the same regression for whole sweep matrices: the
// per-cell flights must coalesce across concurrent identical sweeps.
func TestSweepDogpile(t *testing.T) {
	s := newTestServer(Options{Workers: 1})
	configs := []string{"base", "ssq+svw"}
	benches := []string{"gcc", "twolf"}
	const cells = 4
	var jobs []engine.Job
	var want []byte
	for _, c := range configs {
		cfg, _ := sim.ConfigByName(c)
		for _, b := range benches {
			jobs = append(jobs, engine.Job{Config: cfg, Bench: b, Insts: testInsts})
			want = append(want, directRunBody(t, c, b)...)
		}
	}
	body := fmt.Sprintf(`{"configs":["base","ssq+svw"],"benches":["gcc","twolf"],"insts":%d}`, testInsts)

	const n = 4 // identical sweeps: the held leader and n-1 followers
	release, _, leaderDone := heldLeader(t, s, jobs)
	results, wait := fire(s, n-1, "/v1/sweep", body)
	awaitCoalesced(t, s, (n-1)*cells)
	release()
	wait()
	if err := <-leaderDone; err != nil {
		t.Fatalf("leader: %v", err)
	}

	for i, w := range results {
		if w.Code != http.StatusOK {
			t.Fatalf("sweep %d: HTTP %d: %s", i, w.Code, w.Body)
		}
		if !bytes.Equal(w.Body.Bytes(), want) {
			t.Fatalf("sweep %d: body differs from the svwsim -json encoding", i)
		}
	}
	if m := s.engineStats(); m.MemoMisses != cells {
		t.Errorf("engine executed %d jobs for %d identical sweeps, want %d (one per cell)",
			m.MemoMisses, n, cells)
	}
	st := s.store.Stats()
	if st.Misses != cells+1 {
		t.Errorf("store misses = %d, want %d (the leader's blocker and cells; no follower computes)",
			st.Misses, cells+1)
	}
	if st.Coalesced != (n-1)*cells || st.Hits != 0 {
		t.Errorf("coalesced=%d hits=%d, want every follower cell coalesced (%d)",
			st.Coalesced, st.Hits, (n-1)*cells)
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

// failedLeader sets up the failed-leader path: a held leader (heldLeader)
// claims the cell ssq/gcc, n /v1/run requests for that cell coalesce on
// its flight, and the leader's request is cancelled before the cell
// starts. Before the blocker is released and the cell's flight fails, hold
// runs (with the leader's gate units already returned). It returns the n
// waiters' responses.
func failedLeader(t *testing.T, s *Server, n int, hold func()) []*httptest.ResponseRecorder {
	t.Helper()
	cell, _ := sim.ConfigByName("ssq")
	release, cancel, leaderDone := heldLeader(t, s, []engine.Job{{Config: cell, Bench: "gcc", Insts: testInsts}})
	body := fmt.Sprintf(`{"config":"ssq","bench":"gcc","insts":%d}`, testInsts)
	results, wait := fire(s, n, "/v1/run", body)
	awaitCoalesced(t, s, uint64(n))
	cancel()
	if err := <-leaderDone; !errors.Is(err, context.Canceled) {
		t.Errorf("leader resolve err = %v, want context.Canceled", err)
	}
	hold()
	release()
	wait()
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
