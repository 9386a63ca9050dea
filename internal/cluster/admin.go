package cluster

import (
	"net/http"

	"svwsim/internal/api"
	"svwsim/internal/rendezvous"
	"svwsim/internal/server"
)

// The membership admin surface. It mounts on the -debug-addr listener
// next to pprof — an operator-only address — and NEVER on the serving
// mux: resizing the fabric is an unauthenticated state change, and the
// serving port is reachable by anything that can submit jobs.

// AdminBackendsRequest is the body of POST /admin/backends: a delta
// against the current pool. Removes win over adds, already-present adds
// and absent removes are no-ops, and a change that would empty the pool
// is refused with 400.
type AdminBackendsRequest struct {
	Add    []string `json:"add,omitempty"`
	Remove []string `json:"remove,omitempty"`
}

// AdminBackendsResponse is the body of GET and POST /admin/backends: what
// the POST changed (empty for GET) and the resulting pool with each
// member's live stats.
type AdminBackendsResponse struct {
	Added    []string                  `json:"added"`
	Removed  []string                  `json:"removed"`
	Backends []api.ClusterBackendStats `json:"backends"`
}

// AdminHandler returns the membership admin surface:
//
//	GET  /admin/backends  current pool with per-backend stats
//	POST /admin/backends  {"add":[url...],"remove":[url...]}
//
// Mount it on the debug listener only (cmd/svwctl wires it behind
// -debug-addr via debugserver).
func (c *Coordinator) AdminHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /admin/backends", func(w http.ResponseWriter, r *http.Request) {
		api.WriteJSON(w, http.StatusOK, c.adminBackendsResponse(nil, nil))
	})
	mux.HandleFunc("POST /admin/backends", func(w http.ResponseWriter, r *http.Request) {
		var req AdminBackendsRequest
		if !api.DecodeBody(w, r, server.DefaultMaxBodyBytes, &req) {
			return
		}
		if len(req.Add) == 0 && len(req.Remove) == 0 {
			api.WriteError(w, http.StatusBadRequest, "empty membership change: need add or remove")
			return
		}
		drop := map[string]bool{}
		for _, u := range dedupe(req.Remove) {
			drop[u] = true
		}
		var want []string
		for _, u := range append(c.Backends(), req.Add...) {
			if !drop[rendezvous.Normalize(u)] {
				want = append(want, u)
			}
		}
		added, removed, err := c.SetBackends(want)
		if err != nil {
			api.WriteError(w, http.StatusBadRequest, "%v", err)
			return
		}
		api.WriteJSON(w, http.StatusOK, c.adminBackendsResponse(added, removed))
	})
	return mux
}

func (c *Coordinator) adminBackendsResponse(added, removed []string) AdminBackendsResponse {
	if added == nil {
		added = []string{}
	}
	if removed == nil {
		removed = []string{}
	}
	return AdminBackendsResponse{Added: added, Removed: removed, Backends: c.clusterStats().Backends}
}
