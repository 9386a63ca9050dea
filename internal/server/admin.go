package server

import (
	"net/http"
	"slices"

	"svwsim/internal/api"
	"svwsim/internal/rendezvous"
)

// The membership admin surface. svwd mounts it on the -debug-addr
// listener next to pprof — an operator-only address — and NEVER on the
// serving mux: resizing the fabric is an unauthenticated state change,
// and the serving port is reachable by anything that can submit jobs.

// AdminBackendsRequest is the body of POST /admin/backends: a delta
// against the current membership. Removes win over adds, already-present
// adds and absent removes are no-ops, and a change SetPeers refuses — one
// that would empty the membership or drop this server's own URL — is
// refused with 400.
type AdminBackendsRequest struct {
	Add    []string `json:"add,omitempty"`
	Remove []string `json:"remove,omitempty"`
}

// AdminBackendsResponse is the body of GET and POST /admin/backends: what
// the POST changed (empty for GET) and the resulting members with each
// one's live stats.
type AdminBackendsResponse struct {
	Added    []string                  `json:"added"`
	Removed  []string                  `json:"removed"`
	Backends []api.ClusterBackendStats `json:"backends"`
}

// AdminHandler returns the membership admin surface:
//
//	GET  /admin/backends  current members with per-member stats
//	POST /admin/backends  {"add":[url...],"remove":[url...]}
func (s *Server) AdminHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /admin/backends", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, s.adminBackendsResponse(nil, nil))
	})
	mux.HandleFunc("POST /admin/backends", func(w http.ResponseWriter, r *http.Request) {
		var req AdminBackendsRequest
		if !api.DecodeBody(w, r, DefaultMaxBodyBytes, &req) {
			return
		}
		if len(req.Add) == 0 && len(req.Remove) == 0 {
			writeError(w, http.StatusBadRequest, "empty membership change: need add or remove")
			return
		}
		drop := map[string]bool{}
		for _, u := range req.Remove {
			drop[rendezvous.Normalize(u)] = true
		}
		_, have := s.peers.view()
		var want []string
		for _, u := range append(have, req.Add...) {
			if u = rendezvous.Normalize(u); !drop[u] && !slices.Contains(want, u) {
				want = append(want, u)
			}
		}
		added, removed, err := s.SetPeers(want)
		if err != nil {
			writeError(w, http.StatusBadRequest, "%v", err)
			return
		}
		writeJSON(w, http.StatusOK, s.adminBackendsResponse(added, removed))
	})
	return mux
}

func (s *Server) adminBackendsResponse(added, removed []string) AdminBackendsResponse {
	if added == nil {
		added = []string{}
	}
	if removed == nil {
		removed = []string{}
	}
	_, rows := s.Routing()
	return AdminBackendsResponse{Added: added, Removed: removed, Backends: rows}
}
