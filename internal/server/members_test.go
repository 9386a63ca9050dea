package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"svwsim/internal/api"
)

// TestNewRefusesMalformedPeers: a member URL without a scheme can never
// be forwarded to (every cell it owns would fall back to a local walk, so
// the fabric silently never shards), a repeated URL is one member counted
// twice, and a self that is not among the peers owns no keys while
// believing it owns some. New refuses all three.
func TestNewRefusesMalformedPeers(t *testing.T) {
	for _, c := range []struct {
		name  string
		peers []string
		self  string
		want  []string // normalized members; nil with ok=false
		ok    bool
	}{
		{"schemeless", []string{"127.0.0.1:1", "127.0.0.1:2"}, "127.0.0.1:1", nil, false},
		{"schemeless and repeated", []string{"127.0.0.1:1", "127.0.0.1:2", "127.0.0.1:2"}, "127.0.0.1:1", nil, false},
		{"repeated spelling", []string{"http://a:1", "http://a:1/"}, "", nil, false},
		{"blank entry", []string{"http://a:1", ""}, "", nil, false},
		{"self not among peers", []string{"http://a:1"}, "http://b:2", nil, false},
		{"self without peers", nil, "http://a:1", nil, false},
		{"member", []string{"http://a:1", "http://b:2/"}, "http://b:2", []string{"http://a:1", "http://b:2"}, true},
		{"coordinator", []string{"http://a:1", "http://b:2"}, "", []string{"http://a:1", "http://b:2"}, true},
		{"standalone", nil, "", nil, true},
	} {
		t.Run(c.name, func(t *testing.T) {
			s, err := New(Options{Workers: 1, Peers: c.peers, PeerSelf: c.self})
			if !c.ok {
				if err == nil {
					_, got := s.peers.view()
					t.Fatalf("New accepted peers %q self %q, members %q", c.peers, c.self, got)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if _, got := s.peers.view(); !reflect.DeepEqual(got, c.want) {
				t.Fatalf("members %q, want %q", got, c.want)
			}
		})
	}
}

// TestSetPeersReportsChanges: SetPeers reconciles to exactly the given
// set, reports the difference sorted, and refuses — leaving the members
// as they were — what New would refuse, an empty set, and a set that
// drops this server's own URL.
func TestSetPeersReportsChanges(t *testing.T) {
	coord := newTestServer(Options{Peers: []string{"http://b:2", "http://a:1"}})
	added, removed, err := coord.SetPeers([]string{"http://c:3", "http://b:2/", "http://d:4"})
	if err != nil || !reflect.DeepEqual(added, []string{"http://c:3", "http://d:4"}) ||
		!reflect.DeepEqual(removed, []string{"http://a:1"}) {
		t.Fatalf("SetPeers: +%q -%q %v", added, removed, err)
	}
	want := []string{"http://c:3", "http://b:2", "http://d:4"}
	for _, bad := range [][]string{nil, {"c:3"}, {"http://c:3", "http://c:3"}} {
		if _, _, err := coord.SetPeers(bad); err == nil {
			t.Errorf("SetPeers(%q) accepted", bad)
		}
	}
	if _, got := coord.peers.view(); !reflect.DeepEqual(got, want) {
		t.Fatalf("members %q after refused changes, want %q", got, want)
	}

	member := newTestServer(Options{Peers: []string{"http://a:1", "http://b:2"}, PeerSelf: "http://a:1"})
	if _, _, err := member.SetPeers([]string{"http://b:2", "http://c:3"}); err == nil {
		t.Error("a member accepted a membership without itself")
	}
	if self, got := member.peers.view(); self != "http://a:1" || len(got) != 2 {
		t.Errorf("refused change moved the member: self %q members %q", self, got)
	}
}

// markDown fails one forward to every member of s other than its own URL,
// as a dead member's first failed batch would.
func markDown(s *Server) {
	self, members, _ := s.peers.snapshot()
	for _, m := range members {
		if m.url != self {
			m.begin()
			m.fail(errors.New("connection refused"), true)
		}
	}
}

func healthz(t *testing.T, s *Server) (int, api.HealthResponse) {
	t.Helper()
	w := do(s, "GET", "/v1/healthz", "", nil)
	var h api.HealthResponse
	if err := json.Unmarshal(w.Body.Bytes(), &h); err != nil {
		t.Fatal(err)
	}
	return w.Code, h
}

// TestMemberHealthzOKWithOthersDown: "degraded" means no member can take
// a cell. A member never marks itself down, so with every OTHER member
// down it still serves — every walk ends at itself — and its health stays
// ok, with the counts showing the one healthy member. A coordinator in
// the same state has nowhere to send a cell and is degraded.
func TestMemberHealthzOKWithOthersDown(t *testing.T) {
	peers := []string{"http://a:1", "http://b:2", "http://c:3"}
	member := newTestServer(Options{Peers: peers, PeerSelf: "http://b:2"})
	markDown(member)
	code, h := healthz(t, member)
	if code != http.StatusOK || h.Status != "ok" || h.BackendsHealthy == nil ||
		*h.BackendsHealthy != 1 || *h.BackendsTotal != 3 {
		t.Fatalf("member healthz HTTP %d %+v, want 200 ok with 1 of 3 healthy", code, h)
	}
	run := fmt.Sprintf(`{"config":"ssq","bench":"gcc","insts":%d}`, testInsts)
	if w := do(member, "POST", "/v1/run", run, nil); w.Code != http.StatusOK {
		t.Fatalf("member run with every other member down: HTTP %d: %s", w.Code, w.Body)
	}

	coord := newTestServer(Options{Peers: peers})
	markDown(coord)
	if code, h := healthz(t, coord); code != http.StatusServiceUnavailable || h.Status != "degraded" {
		t.Fatalf("coordinator healthz HTTP %d %q, want 503 degraded", code, h.Status)
	}

	standalone := newTestServer(Options{})
	if code, h := healthz(t, standalone); code != http.StatusOK || h.BackendsTotal != nil {
		t.Fatalf("standalone healthz HTTP %d %+v, want 200 without member counts", code, h)
	}
}

// TestMemberStatsAreItsOwn: a member that owns keys reports its own store
// and engine counters — it never sums the fabric — plus the routing rows
// of its members; a standalone server has no cluster section.
func TestMemberStatsAreItsOwn(t *testing.T) {
	member := newTestServer(Options{Peers: []string{"http://a:1", "http://b:2"}, PeerSelf: "http://a:1"})
	markDown(member) // cells owned by b:2 are computed here
	run := fmt.Sprintf(`{"config":"ssq","bench":"gcc","insts":%d}`, testInsts)
	for i := 0; i < 2; i++ {
		if w := do(member, "POST", "/v1/run", run, nil); w.Code != http.StatusOK {
			t.Fatalf("run %d: HTTP %d", i, w.Code)
		}
	}
	var st api.StatsResponse
	if err := json.Unmarshal(do(member, "GET", "/v1/stats", "", nil).Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if st.Cache.Hits != 1 || st.Cache.Misses != 1 || st.Engine.MemoMisses != 1 {
		t.Errorf("member cache %+v engine %+v, want its own 1 hit, 1 miss, 1 execution", st.Cache, st.Engine)
	}
	if st.Cluster == nil || st.Cluster.Runs != 2 || len(st.Cluster.Backends) != 2 ||
		st.Cluster.Backends[0].URL != "http://a:1" || st.Cluster.Backends[1].URL != "http://b:2" {
		t.Errorf("member cluster section %+v, want 2 runs over [a:1 b:2]", st.Cluster)
	}

	st = api.StatsResponse{}
	if err := json.Unmarshal(do(newTestServer(Options{}), "GET", "/v1/stats", "", nil).Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if st.Cluster != nil {
		t.Errorf("standalone stats carry a cluster section: %+v", st.Cluster)
	}
}

// TestMemberSeriesForEveryMember: the per-member svwctl_backend_* series
// appear for every member a server gains — configured, added by SetPeers,
// or learned from a forwarded batch's headers.
func TestMemberSeriesForEveryMember(t *testing.T) {
	scrape := func(s *Server) string { return do(s, "GET", "/metrics", "", nil).Body.String() }
	series := func(url string) string { return `svwctl_backend_requests_total{backend="` + url + `"} 0` }

	s := newTestServer(Options{Peers: []string{"http://a:1"}})
	if text := scrape(s); !strings.Contains(text, series("http://a:1")) ||
		!strings.Contains(text, "\nsvwctl_backends_healthy 1\n") {
		t.Errorf("configured member missing from the scrape:\n%s", text)
	}
	if _, _, err := s.SetPeers([]string{"http://a:1", "http://b:2"}); err != nil {
		t.Fatal(err)
	}
	if text := scrape(s); !strings.Contains(text, series("http://b:2")) {
		t.Errorf("SetPeers member missing from the scrape:\n%s", text)
	}

	learner := newTestServer(Options{PeerLearn: true})
	r := httptest.NewRequest("POST", "/v1/sweep", nil)
	r.Header.Set(api.PeersHeader, "http://c:3,http://d:4")
	r.Header.Set(api.PeerSelfHeader, "http://d:4")
	learner.observePeers(r)
	text := scrape(learner)
	for _, u := range []string{"http://c:3", "http://d:4"} {
		if !strings.Contains(text, series(u)) {
			t.Errorf("learned member %s missing from the scrape:\n%s", u, text)
		}
	}
}

// TestAdminBackends drives the membership admin surface: GET lists the
// members, POST applies a delta (removes winning over adds), and a change
// that would empty the membership or drop the server's own URL is a 400
// that changes nothing.
func TestAdminBackends(t *testing.T) {
	admin := func(s *Server, method, body string) (int, AdminBackendsResponse) {
		t.Helper()
		r := httptest.NewRequest(method, "/admin/backends", strings.NewReader(body))
		w := httptest.NewRecorder()
		s.AdminHandler().ServeHTTP(w, r)
		var resp AdminBackendsResponse
		if w.Code == http.StatusOK {
			if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
				t.Fatal(err)
			}
		}
		return w.Code, resp
	}
	urls := func(resp AdminBackendsResponse) []string {
		var out []string
		for _, b := range resp.Backends {
			out = append(out, b.URL)
		}
		return out
	}

	coord := newTestServer(Options{Peers: []string{"http://a:1", "http://b:2"}})
	if code, resp := admin(coord, "GET", ""); code != http.StatusOK ||
		!reflect.DeepEqual(urls(resp), []string{"http://a:1", "http://b:2"}) {
		t.Fatalf("GET: HTTP %d %+v", code, resp)
	}
	code, resp := admin(coord, "POST", `{"add":["http://c:3/","http://a:1","http://x:9"],"remove":["http://b:2","http://x:9","http://gone:1"]}`)
	if code != http.StatusOK || !reflect.DeepEqual(resp.Added, []string{"http://c:3"}) ||
		!reflect.DeepEqual(resp.Removed, []string{"http://b:2"}) ||
		!reflect.DeepEqual(urls(resp), []string{"http://a:1", "http://c:3"}) {
		t.Fatalf("POST: HTTP %d %+v", code, resp)
	}
	for _, body := range []string{`{}`, `{"remove":["http://a:1","http://c:3"]}`, `{"add":["c:4"]}`} {
		if code, _ := admin(coord, "POST", body); code != http.StatusBadRequest {
			t.Errorf("POST %s: HTTP %d, want 400", body, code)
		}
	}

	member := newTestServer(Options{Peers: []string{"http://a:1", "http://b:2"}, PeerSelf: "http://a:1"})
	if code, _ := admin(member, "POST", `{"remove":["http://a:1"]}`); code != http.StatusBadRequest {
		t.Errorf("member removing itself: HTTP %d, want 400", code)
	}
	if _, got := member.peers.view(); len(got) != 2 {
		t.Errorf("refused change moved the member: %q", got)
	}
}
