package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"svwsim/internal/api"
	"svwsim/internal/rendezvous"
	"svwsim/internal/store"
	"svwsim/internal/trace"
)

// The fabric. Each engine memo key has exactly one owner among the
// members: its rendezvous winner (internal/rendezvous). resolve sends the
// cells it cannot serve from its own tiers to their owners — the cells of
// one owner together, as one cells-form /v1/sweep marked with
// api.ForwardedHeader, the owners concurrently — and an owner resolves a
// marked batch from its own tiers or engine, never forwarding it again.
// The batch carries each cell's machine by the name it rebuilds from
// (sim.ConfigByName), and the resolved sampling spec, but no keys: the
// owner plans the batch like any sweep (api.SweepRequest.Plan), keying
// each cell by looking its name up in the process's interned machines,
// so it takes no key off the wire and hashes no configuration either.
//
// A forward that fails — transport error, non-200, a reply that does not
// split into its cells, the response header timeout — marks its member
// down for downFor and moves its cells to the next member of their own
// walks (rendezvous order, down members last — including those marked
// since the walk was built), regrouped by that member.
// A 429 moves the cells without the mark: a busy member is not a sick
// one. A cell whose walk reaches this server is computed here, so a
// failing owner costs a recompute, never a wrong answer; a server that is
// not a member (svwctl) fails the cell once its walk runs out. Owner
// answers are served as tier peer and never promoted into the local
// memory tier, so each result lives in one store: its owner's.
//
// Membership is static (Options.Peers/PeerSelf) or learned: with
// PeerLearn, every forwarded batch carries its sender's members
// (api.PeersHeader) and the URL it addressed the receiver by
// (api.PeerSelfHeader), and the receiver adopts them. Only enable
// learning on networks where everything that can reach the serving port
// is trusted — the headers are taken at face value, like every other
// header on this port.
//
// Checkpoints are not cells: the engine probes for them mid-job, and a
// miss reads the key's owner over GET /v1/store/{key} (peerFetch), the
// checksummed on-disk entry encoding, validated like a local file.

// DefaultPeerReadTimeout bounds one checkpoint read from a peer when
// Options leaves PeerReadTimeout zero. Peer reads are disk/memory lookups
// on the owner, never computations, so a short budget is right: past it
// the requester just fast-forwards itself.
const DefaultPeerReadTimeout = 2 * time.Second

// DefaultForwardHeaderTimeout bounds how long a forward waits for its
// owner's response headers when Options leaves ForwardHeaderTimeout zero.
// An owner answers a buffered batch only after computing all of it, so
// the bound must sit above the longest legitimate batch; it exists to
// reclaim a cell from a member that accepted the connection and then hung.
const DefaultForwardHeaderTimeout = 2 * time.Minute

// downFor is how long a failed forward marks its member down.
const downFor = time.Second

// maxPresizedReply bounds the buffer a forward allocates up front for its
// owner's declared reply length; a longer reply grows as it arrives.
const maxPresizedReply = 16 << 20

// maxPeerEntryBytes bounds one fetched peer entry (header + key + value).
const maxPeerEntryBytes = 16 << 20

// errUnreachable fails a cell whose walk ran out without a member
// answering it (HTTP 502).
var errUnreachable = errors.New("no member could serve the cell")

// member is one fabric member's forwarding state as this server sees it.
type member struct {
	url string

	mu        sync.Mutex
	downUntil time.Time
	lastErr   error
	inFlight  int
	stats     api.ClusterBackendStats // counters only; see snapshot
}

// down reports whether a failed forward's mark still holds at now.
func (m *member) down(now time.Time) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return now.Before(m.downUntil)
}

// begin accounts one forward to the member starting.
func (m *member) begin() {
	m.mu.Lock()
	m.inFlight++
	m.stats.Requests++
	m.mu.Unlock()
}

// fail ends a forward that got no answer: err nil for one abandoned with
// its request, which says nothing of the member; mark puts the member
// down for downFor.
func (m *member) fail(err error, mark bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.inFlight--
	if err == nil {
		return
	}
	m.stats.Errors++
	m.lastErr = err
	if !mark {
		return
	}
	now := time.Now()
	if !now.Before(m.downUntil) {
		m.stats.HealthFlaps++
	}
	m.downUntil = now.Add(downFor)
}

// answered ends a forward the member answered, counting each cell under
// the member's own serving tier.
func (m *member) answered(tiers []string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.inFlight--
	m.downUntil, m.lastErr = time.Time{}, nil
	m.stats.JobsOK += uint64(len(tiers))
	for _, t := range tiers {
		switch t {
		case api.CacheMemory:
			m.stats.CacheHits++
		case api.CacheDisk:
			m.stats.DiskHits++
		case api.CachePeer:
			m.stats.PeerHits++
		}
	}
}

// snapshot reads the member's row of the svwctl stats section.
func (m *member) snapshot(now time.Time) api.ClusterBackendStats {
	m.mu.Lock()
	defer m.mu.Unlock()
	st := m.stats
	st.URL, st.InFlight, st.Healthy = m.url, m.inFlight, !now.Before(m.downUntil)
	if m.lastErr != nil {
		st.LastError = m.lastErr.Error()
	}
	return st
}

// peerSet is the server's current view of the fabric membership. members
// and self are normalized URLs; the members slice is copy-on-write.
type peerSet struct {
	mu      sync.Mutex
	self    string
	members []*member
	urls    []string // members' URLs, same order
	joined  string   // last adopted PeersHeader value, for a cheap no-change path
}

// set replaces the membership view. A member that stays keeps its state.
func (p *peerSet) set(urls []string, self string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.setLocked(urls, strings.Join(urls, ","))
	p.self = rendezvous.Normalize(self)
}

func (p *peerSet) setLocked(raw []string, joined string) {
	old := make(map[string]*member, len(p.members))
	for _, m := range p.members {
		old[m.url] = m
	}
	p.members, p.urls = nil, nil
	for _, u := range raw {
		if u = rendezvous.Normalize(u); u == "" {
			continue
		}
		m := old[u]
		if m == nil {
			m = &member{url: u}
		}
		p.members = append(p.members, m)
		p.urls = append(p.urls, u)
	}
	p.joined = joined
}

// observe adopts a membership payload from a forwarded batch's headers.
// An unchanged header (the common case: every batch carries the same
// members) costs two string compares under the lock.
func (p *peerSet) observe(r *http.Request) {
	raw := r.Header.Get(api.PeersHeader)
	if raw == "" {
		return
	}
	self := rendezvous.Normalize(r.Header.Get(api.PeerSelfHeader))
	p.mu.Lock()
	defer p.mu.Unlock()
	if raw != p.joined {
		p.setLocked(strings.Split(raw, ","), raw)
	}
	if self != "" {
		p.self = self
	}
}

// view snapshots (self, member URLs). The slice is shared — callers must
// not mutate it (set/observe replace it wholesale, never append in place).
func (p *peerSet) view() (string, []string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.self, p.urls
}

// snapshot returns self, the members and their URLs, all shared.
func (p *peerSet) snapshot() (string, []*member, []string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.self, p.members, p.urls
}

// walk is key's member order: rendezvous order, with the members marked
// down at now moved last in that same order.
func walk(members []*member, urls []string, key string, now time.Time) []*member {
	order := rendezvous.Order(urls, key)
	out := make([]*member, len(order))
	for k, i := range order {
		out[k] = members[i]
	}
	downLast(out, now)
	return out
}

// downLast moves the members of ms marked down at now behind the others,
// in place, keeping the order within each group.
func downLast(ms []*member, now time.Time) {
	var down []*member
	k := 0
	for _, m := range ms {
		if m.down(now) {
			down = append(down, m)
		} else {
			ms[k] = m
			k++
		}
	}
	copy(ms[k:], down)
}

// observePeers learns membership from a forwarded batch when learning is
// enabled.
func (s *Server) observePeers(r *http.Request) {
	if s.peerLearn {
		s.peers.observe(r)
	}
}

// route resolves the cells other members own, landing each cell's index on
// landed once its body or error is final (see the fabric notes above).
// Every cell arrives with its walk and at hop 0. A cell moving on after a
// failed forward first waits out this request's forwards still in flight
// to its next member, then puts the members marked down since its walk
// was built behind the rest of it: a dead member costs the request one
// failed forward, not one per walk it sits in.
func (s *Server) route(ctx context.Context, tr *trace.Trace, r *http.Request, self string, urls []string, cells []*cell, landed chan<- int) {
	var wg sync.WaitGroup
	var mu sync.Mutex
	ended := sync.NewCond(&mu)
	busy := map[*member]int{} // this request's forwards in flight, per member
	var send func(cells []*cell, last error)
	send = func(cells []*cell, last error) {
		if last != nil {
			busyNext := func(c *cell) bool { return c.hop < len(c.walk) && busy[c.walk[c.hop]] > 0 }
			mu.Lock()
			for {
				now := time.Now()
				for _, c := range cells {
					downLast(c.walk[c.hop:], now)
				}
				if !slices.ContainsFunc(cells, busyNext) {
					break
				}
				ended.Wait()
			}
			mu.Unlock()
		}
		var here []*cell
		var batches [][]*cell
		for _, c := range cells {
			switch {
			case c.hop == len(c.walk):
				c.err = last
				if !errors.Is(last, errGateSaturated) {
					c.err = fmt.Errorf("%w: %v", errUnreachable, last)
				}
				s.countRouted(0, 1, 0)
				landed <- c.index
			case c.walk[c.hop].url == self:
				here = append(here, c)
			default:
				batches = addToBatch(batches, c)
			}
		}
		// Every batch is counted in flight before any can fail and look.
		mu.Lock()
		for _, b := range batches {
			busy[b[0].walk[b[0].hop]]++
		}
		mu.Unlock()
		for _, b := range batches {
			wg.Add(1)
			go func(b []*cell) {
				defer wg.Done()
				err := s.forward(ctx, tr, urls, b)
				mu.Lock()
				busy[b[0].walk[b[0].hop]]--
				ended.Broadcast()
				mu.Unlock()
				switch {
				case err == nil:
					s.countRouted(uint64(len(b)), 0, 0)
				case ctx.Err() != nil:
					for _, c := range b {
						c.err = ctx.Err()
					}
					s.countRouted(0, uint64(len(b)), 0)
				default:
					for _, c := range b {
						c.hop++
					}
					s.countRouted(0, 0, uint64(len(b)))
					send(b, err)
					return
				}
				for _, c := range b {
					landed <- c.index
				}
			}(b)
		}
		if len(here) > 0 {
			wg.Add(1)
			go func() {
				defer wg.Done()
				s.computeHere(ctx, tr, r, here, landed)
			}()
		}
	}
	send(cells, nil)
	wg.Wait()
}

// addToBatch files c with the cells bound for the same member at the same
// budget and sampling spec (one forwarded request carries one of each).
func addToBatch(batches [][]*cell, c *cell) [][]*cell {
	for i, b := range batches {
		if h := b[0]; h.walk[h.hop] == c.walk[c.hop] && h.Insts == c.Insts && h.Sample == c.Sample {
			batches[i] = append(b, c)
			return batches
		}
	}
	return append(batches, []*cell{c})
}

// forward sends one batch of cells to the member at their current hop as
// a marked cells-form /v1/sweep and, when the member answers with every
// cell, fills in each cell's body as tier peer. The bodies alias the
// pooled reply buffer, which the batch's first cell holds (cell.reply).
func (s *Server) forward(ctx context.Context, tr *trace.Trace, urls []string, cells []*cell) error {
	m := cells[0].walk[cells[0].hop]
	req := api.SweepRequest{Cells: make([]api.SweepCell, len(cells)), Insts: cells[0].Insts}
	for k, c := range cells {
		req.Cells[k] = api.SweepCell{Config: c.Name(), Bench: c.Bench}
	}
	req.SetSample(cells[0].Sample)
	body, _ := json.Marshal(req) // strings and integers always encode

	sp := tr.Start("forward")
	sp.SetAttr("member", m.url)
	sp.SetAttr("cells", strconv.Itoa(len(cells)))
	if hop := cells[0].hop; hop > 0 {
		sp.SetAttr("hop", strconv.Itoa(hop))
	}
	defer sp.End()
	m.begin()
	fail := func(err error, mark bool) error {
		sp.SetAttr("error", err.Error())
		if ctx.Err() != nil {
			m.fail(nil, false)
			return ctx.Err()
		}
		m.fail(err, mark)
		return fmt.Errorf("%s: %w", m.url, err)
	}
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, m.url+"/v1/sweep", bytes.NewReader(body))
	if err != nil {
		return fail(err, true)
	}
	hreq.Header.Set("Content-Type", "application/json")
	hreq.Header.Set(api.ForwardedHeader, "1")
	hreq.Header.Set(api.PeersHeader, strings.Join(urls, ","))
	hreq.Header.Set(api.PeerSelfHeader, m.url)
	if id := tr.ID(); id != "" {
		hreq.Header.Set(trace.Header, id)
	}
	resp, err := s.peerClient.Do(hreq)
	if err != nil {
		return fail(err, true)
	}
	defer resp.Body.Close()
	reply, err := readReply(resp)
	sp.SetAttr("status", strconv.Itoa(resp.StatusCode))
	switch {
	case err != nil:
		err = fail(err, true)
	case resp.StatusCode == http.StatusTooManyRequests:
		err = fail(errGateSaturated, false)
	case resp.StatusCode != http.StatusOK:
		err = fail(httpStatusError(resp.StatusCode), true)
	}
	if err != nil {
		putBuf(reply)
		return err
	}
	got, err := api.SplitResults(*reply, len(cells))
	tiers := strings.Split(resp.Header.Get(api.CacheHeader), ",")
	if err == nil && len(tiers) != len(cells) {
		err = fmt.Errorf("%s lists %d tiers for %d cells", api.CacheHeader, len(tiers), len(cells))
	}
	if err != nil {
		putBuf(reply)
		return fail(err, true)
	}
	for k, c := range cells {
		c.body, c.origin, c.from = got[k], store.OriginPeer, m.url
	}
	cells[0].reply = reply
	m.answered(tiers)
	return nil
}

// readReply reads resp's body to EOF into a pooled buffer, so Close hands
// the connection back to the keep-alive pool. A declared length sizes the
// buffer once (the spare MinRead bytes take the read that sees EOF);
// without one the buffer grows as the body arrives.
func readReply(resp *http.Response) (*[]byte, error) {
	n := resp.ContentLength
	if n < 0 || n > maxPresizedReply {
		n = 0
	}
	reply := getBuf(int(n) + bytes.MinRead)
	buf := bytes.NewBuffer(*reply)
	_, err := buf.ReadFrom(resp.Body)
	*reply = buf.Bytes()
	return reply, err
}

// httpStatusError names a member's non-200 answer. It always carries the
// numeric code: http.StatusText alone is "" for non-standard codes (a 599
// from a middlebox), which would leave a blank last_error in the stats.
func httpStatusError(code int) error {
	if text := http.StatusText(code); text != "" {
		return fmt.Errorf("HTTP %d %s", code, text)
	}
	return fmt.Errorf("HTTP %d", code)
}

// peerFetch asks key's owner for its stored entry, returning the validated
// value bytes. ok=false on every other outcome — no usable membership,
// self-owned key, owner down, 404, or an entry that fails validation — and
// the caller carries on as if its own disk tier had missed.
func (s *Server) peerFetch(ctx context.Context, key string) ([]byte, bool) {
	self, members := s.peers.view()
	if self == "" || len(members) < 2 {
		return nil, false
	}
	owner := rendezvous.Owner(members, key)
	if owner == "" || owner == self {
		return nil, false
	}
	t0 := time.Now()
	defer func() { s.metrics.storePeer.Observe(time.Since(t0)) }()
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
		return nil, false
	}
	raw, err := io.ReadAll(io.LimitReader(resp.Body, maxPeerEntryBytes))
	if err != nil {
		return nil, false
	}
	// Bytes that fail the entry's own integrity checks (or name a
	// different key) are a miss: recompute rather than trust them.
	return store.DecodeEntry(raw, key)
}

// handleStoreGet is the peer-read protocol: GET /v1/store/{key} answers
// with the checksummed entry encoding for any key this server's store
// holds (either tier), 404 otherwise. Lookups here touch no hit/miss
// counters — the requesting peer accounts the serve on its side, so a
// fetched entry is counted exactly once in the fabric.
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
