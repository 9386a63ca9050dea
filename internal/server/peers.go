package server

import (
	"context"
	"io"
	"net/http"
	"net/url"
	"strings"
	"sync"
	"time"

	"svwsim/internal/api"
	"svwsim/internal/rendezvous"
	"svwsim/internal/store"
	"svwsim/internal/trace"
)

// The sharded persistent store. Each engine memo key has exactly one
// store owner in the fabric: the rendezvous winner (internal/rendezvous,
// the same hash svwctl routes jobs with) among the live backend URLs.
// Because routing and ownership share the hash, a key's jobs normally
// land on its owner and persist there; any backend asked for a key it
// does not own probes memory → local disk → the owner over HTTP
// (GET /v1/store/{key}) before paying a recompute. The peer answer is
// the checksummed on-disk entry encoding, validated with the same
// parseEntry path as a local file — a corrupt or mismatched peer answer
// degrades to a miss, never a wrong answer — and a validated fetch is
// promoted into the local memory tier only, so the persistent copy stays
// exactly where the sharding map says it lives.
//
// Membership can be static (-peers/-peer-self flags) or learned: with
// PeerLearn, the coordinator's forwarded requests carry the pool
// snapshot (api.PeersHeader) plus the URL the receiver was addressed by
// (api.PeerSelfHeader), and the backend adopts that as its election set.
// Only enable learning on networks where everything that can reach the
// serving port is trusted — the header is taken at face value, like
// every other header on this port.

// DefaultPeerReadTimeout bounds one peer store read when Options leaves
// PeerReadTimeout zero. Peer reads are disk/memory lookups on the owner,
// never computations, so a short budget is right: past it the requester
// just computes locally.
const DefaultPeerReadTimeout = 2 * time.Second

// maxPeerEntryBytes bounds one fetched peer entry (header + key + value).
const maxPeerEntryBytes = 16 << 20

// peerSet is the server's current view of the fabric membership, guarded
// for concurrent observe/view. members and self are normalized URLs.
type peerSet struct {
	mu      sync.Mutex
	self    string
	members []string
	joined  string // last adopted PeersHeader value, for a cheap no-change path
}

// set replaces the membership view from a configured list.
func (p *peerSet) set(members []string, self string) {
	norm := make([]string, 0, len(members))
	for _, m := range members {
		if m = rendezvous.Normalize(m); m != "" {
			norm = append(norm, m)
		}
	}
	p.mu.Lock()
	p.members = norm
	p.self = rendezvous.Normalize(self)
	p.joined = strings.Join(norm, ",")
	p.mu.Unlock()
}

// observe adopts a membership payload from a forwarded request's headers.
// An unchanged header (the common case: every forwarded request carries
// the same snapshot) costs two string compares under the lock.
func (p *peerSet) observe(r *http.Request) {
	raw := r.Header.Get(api.PeersHeader)
	if raw == "" {
		return
	}
	self := rendezvous.Normalize(r.Header.Get(api.PeerSelfHeader))
	p.mu.Lock()
	if raw == p.joined && (self == "" || self == p.self) {
		p.mu.Unlock()
		return
	}
	members := make([]string, 0, strings.Count(raw, ",")+1)
	for _, m := range strings.Split(raw, ",") {
		if m = rendezvous.Normalize(m); m != "" {
			members = append(members, m)
		}
	}
	p.members = members
	p.joined = raw
	if self != "" {
		p.self = self
	}
	p.mu.Unlock()
}

// view snapshots (self, members). The slice is shared — callers must not
// mutate it (set/observe replace it wholesale, never append in place).
func (p *peerSet) view() (string, []string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.self, p.members
}

// observePeers learns membership from a forwarded request when learning
// is enabled.
func (s *Server) observePeers(r *http.Request) {
	if s.peerLearn {
		s.peers.observe(r)
	}
}

// peerFetch asks key's store owner for its entry, returning the
// validated value bytes. ok=false on every other outcome — no usable
// membership, self-owned key, owner down, 404, or an entry that fails
// validation — and the caller computes locally, exactly as if the disk
// tier had missed.
func (s *Server) peerFetch(ctx context.Context, tr *trace.Trace, key string) ([]byte, bool) {
	self, members := s.peers.view()
	if self == "" || len(members) < 2 {
		return nil, false
	}
	owner := rendezvous.Owner(members, key)
	if owner == "" || owner == self {
		return nil, false
	}
	t0 := time.Now()
	sp := tr.Start("store_peer")
	sp.SetAttr("owner", owner)
	outcome := "error"
	defer func() {
		sp.SetAttr("outcome", outcome)
		sp.End()
		s.metrics.storePeer.Observe(time.Since(t0))
	}()

	fctx, cancel := context.WithTimeout(ctx, s.peerTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(fctx, http.MethodGet,
		owner+"/v1/store/"+url.PathEscape(key), nil)
	if err != nil {
		return nil, false
	}
	resp, err := s.peerClient.Do(req)
	if err != nil {
		return nil, false
	}
	defer func() {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 64<<10))
		resp.Body.Close()
	}()
	if resp.StatusCode != http.StatusOK {
		outcome = "miss"
		return nil, false
	}
	raw, err := io.ReadAll(io.LimitReader(resp.Body, maxPeerEntryBytes))
	if err != nil {
		return nil, false
	}
	val, ok := store.DecodeEntry(raw, key)
	if !ok {
		// The owner answered, but with bytes that fail the entry's own
		// integrity checks (or a different key): treat as a miss and
		// recompute rather than serve what cannot be trusted.
		outcome = "corrupt"
		return nil, false
	}
	outcome = "hit"
	return val, true
}

// handleStoreGet is the peer-read protocol: GET /v1/store/{key} answers
// with the checksummed entry encoding for any key this server's store
// holds (either tier), 404 otherwise. Lookups here touch no hit/miss
// counters — the requesting peer accounts the serve on its side, so a
// fetched result is counted exactly once in the fabric.
func (s *Server) handleStoreGet(w http.ResponseWriter, r *http.Request) {
	key := r.PathValue("key")
	if key == "" {
		writeError(w, http.StatusBadRequest, "empty store key")
		return
	}
	val, origin := s.store.Get(key)
	if origin == store.OriginMiss {
		writeError(w, http.StatusNotFound, "no entry for key")
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set(api.CacheHeader, origin.String())
	w.WriteHeader(http.StatusOK)
	w.Write(store.EncodeEntry(key, val))
}
