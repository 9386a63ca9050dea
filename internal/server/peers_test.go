package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"slices"
	"strings"
	"testing"

	"svwsim/internal/api"
	"svwsim/internal/rendezvous"
	"svwsim/internal/sim"
	"svwsim/internal/sim/engine"
	"svwsim/internal/store"
)

// shardedFabric is n svwd servers with per-backend store directories and a
// static membership view over real HTTP listeners — the sharded persistent
// store without a coordinator in front.
type shardedFabric struct {
	servers []*Server
	urls    []string
	dirs    []string
	tss     []*httptest.Server
}

// newShardedFabric binds the listeners FIRST so every member's URL is
// known before server.New runs (Peers/PeerSelf are constructor options),
// then mounts each server's handler on its pre-bound listener.
func newShardedFabric(t *testing.T, n int) *shardedFabric {
	t.Helper()
	f := &shardedFabric{}
	lns := make([]net.Listener, n)
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		f.urls = append(f.urls, "http://"+ln.Addr().String())
	}
	for i := 0; i < n; i++ {
		f.dirs = append(f.dirs, t.TempDir())
		s := newTestServer(Options{
			Workers:          2,
			StoreDir:         f.dirs[i],
			StoreWriteBehind: 64,
			Peers:            f.urls,
			PeerSelf:         f.urls[i],
		})
		t.Cleanup(func() { s.Close() })
		f.servers = append(f.servers, s)
		ts := httptest.NewUnstartedServer(s.Handler())
		ts.Listener.Close()
		ts.Listener = lns[i]
		ts.Start()
		t.Cleanup(ts.Close)
		f.tss = append(f.tss, ts)
	}
	return f
}

// ownerIndex resolves which member owns key's persistent entry.
func (f *shardedFabric) ownerIndex(key string) int {
	owner := rendezvous.Owner(f.urls, key)
	for i, u := range f.urls {
		if u == owner {
			return i
		}
	}
	return -1
}

// warm computes every (config, bench) cell at its store owner via
// /v1/run, returning how many cells each member owns.
func (f *shardedFabric) warm(t *testing.T, configs, benches []string) []int {
	t.Helper()
	owned := make([]int, len(f.servers))
	for _, cname := range configs {
		cfg, ok := sim.ConfigByName(cname)
		if !ok {
			t.Fatalf("unknown config %q", cname)
		}
		for _, bench := range benches {
			i := f.ownerIndex(engine.Fingerprint(cfg, bench, testInsts))
			if i < 0 {
				t.Fatalf("no owner for %s/%s", cname, bench)
			}
			owned[i]++
			body := fmt.Sprintf(`{"config":%q,"bench":%q,"insts":%d}`, cname, bench, testInsts)
			if w := do(f.servers[i], "POST", "/v1/run", body, nil); w.Code != http.StatusOK {
				t.Fatalf("warming %s/%s on owner %d: HTTP %d: %s", cname, bench, i, w.Code, w.Body)
			}
		}
	}
	return owned
}

// refSweepBody is the `svwsim -json` encoding of the sweep: the reference
// bodies concatenated config-major.
func refSweepBody(t *testing.T, configs, benches []string) []byte {
	t.Helper()
	var body []byte
	for _, c := range configs {
		for _, b := range benches {
			body = append(body, directRunBody(t, c, b)...)
		}
	}
	return body
}

func sweepReq(configs, benches []string) string {
	b, _ := json.Marshal(api.SweepRequest{Configs: configs, Benches: benches, Insts: testInsts})
	return string(b)
}

// The sharded-store headline: after every cell is computed at its store
// owner, a full-registry sweep at ONE member is byte-identical to the
// `svwsim -json` encoding with ZERO engine executions — self-owned cells
// come from its own tiers and everything else from its owner, one batch
// per owner — and each process counts each cell it served once.
func TestShardedSweepEquivalenceOverPeerReads(t *testing.T) {
	configs := sim.ConfigNames()
	benches := []string{"gcc", "twolf"}
	cells := len(configs) * len(benches)
	f := newShardedFabric(t, 3)
	owned := f.warm(t, configs, benches)
	if owned[0] == cells {
		t.Skipf("all %d cells owned by member 0; nothing would exercise peer reads", cells)
	}

	s0 := f.servers[0]
	memoBefore := s0.engineStats()
	w := do(s0, "POST", "/v1/sweep", sweepReq(configs, benches), nil)
	if w.Code != http.StatusOK {
		t.Fatalf("sweep HTTP %d: %s", w.Code, w.Body)
	}
	if !bytes.Equal(w.Body.Bytes(), refSweepBody(t, configs, benches)) {
		t.Fatal("sharded sweep differs from the svwsim -json encoding")
	}
	if m := s0.engineStats(); m.MemoMisses != memoBefore.MemoMisses {
		t.Fatalf("member 0 executed %d jobs during the sweep, want 0 — "+
			"every non-owned cell should come from its owner", m.MemoMisses-memoBefore.MemoMisses)
	}

	st := cacheStats(t, s0)
	if int(st.PeerHits) != cells-owned[0] {
		t.Fatalf("member 0 peer hits = %d, want %d (cells it does not own): %+v",
			st.PeerHits, cells-owned[0], st)
	}
	if int(st.Hits) != owned[0] {
		t.Fatalf("member 0 memory hits = %d, want %d (its own warm cells): %+v",
			st.Hits, owned[0], st)
	}
	// Fabric-wide, each process counts what it served its own client,
	// once: every cell's warm compute (a miss on its owner), the sweep's
	// serve on member 0, and each owner's answer to member 0's batch. Any
	// double count — a batch counted per cell twice, say — breaks this sum.
	var total int
	for _, s := range f.servers {
		cs := cacheStats(t, s)
		total += int(cs.Hits + cs.DiskHits + cs.PeerHits + cs.Misses)
	}
	if want := 3*cells - owned[0]; total != want {
		t.Fatalf("fabric-wide accounted serves = %d, want %d (warm + sweep + owners' batches, once each)",
			total, want)
	}
	// One forward per owner: the members 0 sent cells to saw one batch each.
	for i, s := range f.servers[1:] {
		scrape := do(s, "GET", "/metrics", "", nil).Body.String()
		if one := `svw_http_requests_total{code="200",endpoint="/v1/sweep"} 1` + "\n"; owned[i+1] > 0 && !strings.Contains(scrape, one) {
			t.Fatalf("member %d did not answer member 0's cells as exactly one sweep:\n%s", i+1, scrape)
		}
	}

	// An SSE sweep at another member labels each cell's event with its
	// real origin: memory for cells it owns, peer for the rest.
	s1 := f.servers[1]
	hdr := map[string]string{"Accept": "text/event-stream"}
	ws := do(s1, "POST", "/v1/sweep", sweepReq(configs, benches), hdr)
	if ws.Code != http.StatusOK {
		t.Fatalf("SSE sweep HTTP %d: %s", ws.Code, ws.Body)
	}
	events := parseSSE(t, ws.Body.String())
	if len(events) != cells+1 {
		t.Fatalf("got %d events, want %d results + done", len(events), cells)
	}
	var peerEvents int
	for _, e := range events[:cells] {
		var ev SweepEvent
		if err := json.Unmarshal(e.Data, &ev); err != nil {
			t.Fatal(err)
		}
		if !ev.Cached {
			t.Fatalf("event %d not served from the store: %+v", e.ID, ev)
		}
		if ev.Origin == api.CachePeer {
			peerEvents++
		}
	}
	var done SweepDone
	if err := json.Unmarshal(events[cells].Data, &done); err != nil {
		t.Fatal(err)
	}
	if peerEvents != cells-owned[1] || done.PeerHits != peerEvents {
		t.Fatalf("SSE peer events = %d, done.PeerHits = %d, want %d",
			peerEvents, done.PeerHits, cells-owned[1])
	}
}

// Killing a store owner mid-fabric must cost recomputes, never wrong
// answers: cells owned by the dead member walk on to their next member —
// computed here when that is this member, answered by the other member
// otherwise — the sweep stays byte-identical, and the serving member's
// accounting still sums to one count per cell.
func TestShardedSweepSurvivesDeadOwner(t *testing.T) {
	configs := []string{"ssq", "ssq+svw", "nlq", "rle"}
	benches := []string{"gcc", "twolf"}
	cells := len(configs) * len(benches)
	f := newShardedFabric(t, 3)
	owned := f.warm(t, configs, benches)

	// Kill whichever of members 1/2 owns more cells, so the dead-owner
	// path is guaranteed non-empty whenever member 0 doesn't own all.
	dead := 1
	if owned[2] > owned[1] {
		dead = 2
	}
	if owned[dead] == 0 {
		t.Skipf("cell ownership %v left nothing on a killable member", owned)
	}
	f.tss[dead].Close()

	s0 := f.servers[0]
	before := cacheStats(t, s0)
	w := do(s0, "POST", "/v1/sweep", sweepReq(configs, benches), nil)
	if w.Code != http.StatusOK {
		t.Fatalf("sweep with a dead owner: HTTP %d: %s", w.Code, w.Body)
	}
	if !bytes.Equal(w.Body.Bytes(), refSweepBody(t, configs, benches)) {
		t.Fatal("sweep with a dead owner differs from the reference encoding")
	}

	// A dead-owned cell's next member is its second in rendezvous order.
	wantPeer, wantMiss := owned[3-dead], 0
	for _, cname := range configs {
		cfg, _ := sim.ConfigByName(cname)
		for _, bench := range benches {
			rank := rendezvous.Rank(f.urls, engine.Fingerprint(cfg, bench, testInsts))
			switch {
			case rank[0] != f.urls[dead]:
			case rank[1] == f.urls[0]:
				wantMiss++
			default:
				wantPeer++
			}
		}
	}
	after := cacheStats(t, s0)
	dHits := int(after.Hits - before.Hits)
	dPeer := int(after.PeerHits - before.PeerHits)
	dMiss := int(after.Misses - before.Misses)
	if dHits != owned[0] || dPeer != wantPeer || dMiss != wantMiss {
		t.Fatalf("sweep deltas hits/peer/miss = %d/%d/%d, want %d/%d/%d (ownership %v)",
			dHits, dPeer, dMiss, owned[0], wantPeer, wantMiss, owned)
	}
	if dHits+dPeer+dMiss != cells {
		t.Fatalf("sweep accounted %d serves for %d cells", dHits+dPeer+dMiss, cells)
	}
}

// A cold sweep sent straight to one member computes every cell at its
// owner: once the write-behind queues drain (Close, as on SIGTERM), each
// entry sits on its owner's disk and on no other.
func TestColdDirectSweepLandsOnOwners(t *testing.T) {
	configs := []string{"ssq", "ssq+svw", "nlq", "rle", "base-ssq", "rle+svw"}
	benches := []string{"gcc", "twolf"}
	f := newShardedFabric(t, 2)
	w := do(f.servers[0], "POST", "/v1/sweep", sweepReq(configs, benches), nil)
	if w.Code != http.StatusOK {
		t.Fatalf("sweep HTTP %d: %s", w.Code, w.Body)
	}
	if !bytes.Equal(w.Body.Bytes(), refSweepBody(t, configs, benches)) {
		t.Fatal("cold direct sweep differs from the svwsim -json encoding")
	}
	want := make([]map[string]bool, 2)
	for i := range want {
		want[i] = map[string]bool{}
	}
	for _, cname := range configs {
		cfg, _ := sim.ConfigByName(cname)
		for _, bench := range benches {
			key := engine.Fingerprint(cfg, bench, testInsts)
			want[f.ownerIndex(key)][key] = true
		}
	}
	if len(want[1]) == 0 {
		t.Skip("member 0 owns every cell; nothing was forwarded")
	}
	for i, s := range f.servers {
		s.Close()
		entries, err := store.ScanDir(f.dirs[i])
		if err != nil {
			t.Fatal(err)
		}
		got := map[string]bool{}
		for _, e := range entries {
			got[e.Key] = true
		}
		if len(got) != len(want[i]) {
			t.Errorf("member %d holds %d entries on disk, want the %d it owns", i, len(got), len(want[i]))
		}
		for key := range got {
			if !want[i][key] {
				t.Errorf("member %d holds %s, owned by the other member", i, key)
			}
		}
	}
}

// A member whose every peer is down serves what its own tiers hold and
// computes the rest: the sweep stays byte-identical, and each dead peer
// asked for a cell is marked down by its failed forward.
func TestShardedSweepWithEveryPeerDown(t *testing.T) {
	configs := []string{"ssq", "ssq+svw", "nlq", "rle"}
	benches := []string{"gcc", "twolf"}
	cells := len(configs) * len(benches)
	f := newShardedFabric(t, 3)
	owned := f.warm(t, configs, benches)
	if owned[0] == cells {
		t.Skipf("member 0 owns all %d cells; no peer would be asked", cells)
	}
	f.tss[1].Close()
	f.tss[2].Close()

	s0 := f.servers[0]
	before := cacheStats(t, s0)
	w := do(s0, "POST", "/v1/sweep", sweepReq(configs, benches), nil)
	if w.Code != http.StatusOK {
		t.Fatalf("sweep with every peer down: HTTP %d: %s", w.Code, w.Body)
	}
	if !bytes.Equal(w.Body.Bytes(), refSweepBody(t, configs, benches)) {
		t.Fatal("sweep with every peer down differs from the reference encoding")
	}
	after := cacheStats(t, s0)
	if hits, miss := after.Hits-before.Hits, after.Misses-before.Misses; int(hits) != owned[0] || int(miss) != cells-owned[0] {
		t.Fatalf("served %d from memory and computed %d, want %d and %d", hits, miss, owned[0], cells-owned[0])
	}
	rs, rows := s0.Routing()
	if rs.Answered != 0 || rs.Failed != 0 || rs.Moved == 0 {
		t.Fatalf("routing %+v, want only moves", rs)
	}
	// A dead peer is asked once: as some cell's owner, or as the next
	// member of a cell whose owner failed first. Once it has failed, every
	// walk still holding it puts it last, behind member 0. A peer ahead of
	// member 0 in no cell's walk is never asked.
	asked := make([]bool, len(f.urls))
	for _, cname := range configs {
		cfg, _ := sim.ConfigByName(cname)
		for _, bench := range benches {
			for _, u := range rendezvous.Rank(f.urls, engine.Fingerprint(cfg, bench, testInsts)) {
				if u == f.urls[0] {
					break
				}
				asked[slices.Index(f.urls, u)] = true
			}
		}
	}
	// The down mark may have lapsed by now (it lasts a second); the flap
	// it counted stays.
	for i, b := range rows[1:] {
		want := uint64(0)
		if asked[i+1] {
			want = 1
		}
		if b.Errors != want {
			t.Errorf("peer %s: %d failed forwards, want %d", b.URL, b.Errors, want)
		}
		if b.Errors > 0 && (b.HealthFlaps == 0 || b.JobsOK != 0) {
			t.Errorf("peer %s: %d down marks, %d jobs after %d failed forwards, want marked down with none",
				b.URL, b.HealthFlaps, b.JobsOK, b.Errors)
		}
	}
}

// The peer-read endpoint round-trips the entry encoding for keys with
// URL-hostile characters, misses with 404, and rejects the empty key.
func TestStoreGetEndpoint(t *testing.T) {
	s := newTestServer(Options{StoreDir: t.TempDir()})
	key := "cfg|with spaces/{braces}?&#"
	val := []byte(`{"some":"result"}`)
	s.store.Put(key, val)

	w := do(s, "GET", "/v1/store/"+url.PathEscape(key), "", nil)
	if w.Code != http.StatusOK {
		t.Fatalf("HTTP %d: %s", w.Code, w.Body)
	}
	if ct := w.Header().Get("Content-Type"); ct != "application/octet-stream" {
		t.Fatalf("Content-Type %q", ct)
	}
	got, ok := store.DecodeEntry(w.Body.Bytes(), key)
	if !ok || !bytes.Equal(got, val) {
		t.Fatalf("decoded %q, %v — the endpoint must serve the validated entry encoding", got, ok)
	}
	// Serving a peer read accounts nothing here: the requester counts it.
	if st := cacheStats(t, s); st.Hits != 0 || st.DiskHits != 0 || st.PeerHits != 0 {
		t.Fatalf("peer serve touched counters: %+v", st)
	}
	if w := do(s, "GET", "/v1/store/"+url.PathEscape("absent"), "", nil); w.Code != http.StatusNotFound {
		t.Fatalf("miss: HTTP %d, want 404", w.Code)
	}
}

// Membership learning: with PeerLearn, a forwarded request's membership
// headers replace the election set; without it they are ignored.
func TestPeerMembershipLearning(t *testing.T) {
	mk := func(peers, self string) *http.Request {
		r := httptest.NewRequest("POST", "/v1/run", nil)
		if peers != "" {
			r.Header.Set(api.PeersHeader, peers)
		}
		if self != "" {
			r.Header.Set(api.PeerSelfHeader, self)
		}
		return r
	}

	learner := newTestServer(Options{PeerLearn: true})
	learner.observePeers(mk("http://a:1,http://b:2/", "http://b:2"))
	self, members := learner.peers.view()
	if self != "http://b:2" || len(members) != 2 || members[1] != "http://b:2" {
		t.Fatalf("learned view = %q, %v", self, members)
	}
	// Same header again: the cheap path must keep the view.
	learner.observePeers(mk("http://a:1,http://b:2/", "http://b:2"))
	if _, m := learner.peers.view(); len(m) != 2 {
		t.Fatalf("unchanged header disturbed the view: %v", m)
	}
	// A shrunk pool replaces the set.
	learner.observePeers(mk("http://b:2", ""))
	if _, m := learner.peers.view(); len(m) != 1 || m[0] != "http://b:2" {
		t.Fatalf("shrunk pool not adopted: %v", m)
	}

	static := newTestServer(Options{Peers: []string{"http://x", "http://y"}, PeerSelf: "http://x"})
	static.observePeers(mk("http://evil:1,http://evil:2", "http://evil:1"))
	if self, m := static.peers.view(); self != "http://x" || len(m) != 2 || m[0] != "http://x" {
		t.Fatalf("learning off, but headers were adopted: %q, %v", self, m)
	}
}
