package cluster

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"svwsim/internal/rendezvous"
)

// Dynamic membership. The backend set used to be a slice fixed at New;
// growing, shrinking or healing the fabric meant a coordinator restart.
// It is now a registry that mutates under a lock while every reader —
// dispatch's ranked walk, health probes, /v1/stats, the per-backend
// metric series — works from an immutable snapshot:
//
//   - the pool slice is copy-on-write: mutations build a new slice and
//     swap it in; a slice handed out by snapshot() is never appended to
//     or reordered again, so readers iterate it lock-free;
//   - a dispatch takes ONE snapshot and ranks, walks, retries and hedges
//     entirely within it, so a membership change mid-job can never make
//     the walk skip or double-visit a backend;
//   - removal is drain, not teardown: in-flight attempts hold *backend
//     pointers from their snapshot, whose semaphore and counters outlive
//     the registry entry, so started work finishes normally against the
//     departed backend and the last reference is simply garbage
//     collected. Rendezvous hashing (routing.go) keeps the remap minimal
//     on either kind of change.
type membership struct {
	conc int // per-backend in-flight bound for newly added members

	mu   sync.Mutex
	pool []*backend // copy-on-write; handed-out slices are immutable
}

// snapshot returns the current pool. The slice and its entries must not
// be mutated by callers; each backend's own state is internally locked.
func (m *membership) snapshot() []*backend {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.pool
}

// get returns the member with the given (normalized) URL, or nil.
func (m *membership) get(url string) *backend {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, b := range m.pool {
		if b.url == url {
			return b
		}
	}
	return nil
}

// urls returns the member URLs in pool order.
func (m *membership) urls() []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]string, len(m.pool))
	for i, b := range m.pool {
		out[i] = b.url
	}
	return out
}

// reconcile applies adds then removes against the current pool and swaps
// in the new one. Already-present adds and absent removes are no-ops (the
// caller declares a desired delta, not a transaction); the reported
// slices are what actually changed. A resulting empty pool is refused —
// a coordinator with zero backends can serve nothing, so the last member
// can only be replaced, never removed.
func (m *membership) reconcile(add, remove []string) (added, removed []string, err error) {
	m.mu.Lock()
	defer m.mu.Unlock()

	next := make([]*backend, len(m.pool))
	copy(next, m.pool)
	have := make(map[string]bool, len(next))
	for _, b := range next {
		have[b.url] = true
	}

	for _, raw := range add {
		u := rendezvous.Normalize(raw)
		if u == "" || !strings.Contains(u, "://") {
			return nil, nil, fmt.Errorf("cluster: invalid backend URL %q", raw)
		}
		if have[u] {
			continue
		}
		have[u] = true
		next = append(next, &backend{
			url:     u,
			sem:     make(chan struct{}, m.conc),
			healthy: true, // presumed until probed, like the initial pool
		})
		added = append(added, u)
	}
	for _, raw := range remove {
		u := rendezvous.Normalize(raw)
		for i, b := range next {
			if b.url == u {
				next = append(next[:i], next[i+1:]...)
				removed = append(removed, u)
				break
			}
		}
	}
	if len(next) == 0 {
		return nil, nil, fmt.Errorf("cluster: refusing to remove the last backend")
	}
	m.pool = next
	return added, removed, nil
}

// AddBackend adds one backend URL to the pool (no-op if present). The new
// member starts presumed healthy and claims its rendezvous share of keys
// from the next dispatch on; in-flight jobs finish on the snapshot they
// ranked under.
func (c *Coordinator) AddBackend(url string) error {
	_, _, err := c.members.reconcile([]string{url}, nil)
	if err == nil {
		c.metrics.ensureBackend(rendezvous.Normalize(url))
	}
	return err
}

// RemoveBackend removes one backend URL from the pool (no-op if absent;
// error when it is the last member). Removal is a drain: requests already
// walking a snapshot that contains the backend complete against it, new
// dispatches no longer see it.
func (c *Coordinator) RemoveBackend(url string) error {
	_, _, err := c.members.reconcile(nil, []string{url})
	return err
}

// SetBackends reconciles the pool to exactly urls — the SIGHUP reload
// path: members not in urls are removed (drained), missing ones are
// added. It reports what changed.
func (c *Coordinator) SetBackends(urls []string) (added, removed []string, err error) {
	want := make(map[string]bool, len(urls))
	var add []string
	for _, raw := range urls {
		u := rendezvous.Normalize(raw)
		if u == "" {
			continue
		}
		if !want[u] {
			want[u] = true
			add = append(add, u)
		}
	}
	if len(add) == 0 {
		return nil, nil, fmt.Errorf("cluster: refusing to reconcile to an empty backend set")
	}
	var drop []string
	for _, u := range c.members.urls() {
		if !want[u] {
			drop = append(drop, u)
		}
	}
	added, removed, err = c.members.reconcile(add, drop)
	for _, u := range added {
		c.metrics.ensureBackend(u)
	}
	sort.Strings(added)
	sort.Strings(removed)
	return added, removed, err
}

// Backends returns the current member URLs.
func (c *Coordinator) Backends() []string { return c.members.urls() }
