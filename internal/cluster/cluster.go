// Package cluster is a compatibility shim: the fabric coordinator is an
// svwd (internal/server) given members and no self among them, which owns
// no keys and routes every cell to its owner. perfbench still builds its
// coordinator through New; the next change to the benchmark builds it
// with server.New and deletes this package.
package cluster

import (
	"errors"

	"svwsim/internal/server"
)

// Options names the members a coordinator fronts.
type Options struct {
	// Backends are the member base URLs (e.g. "http://10.0.0.1:7411").
	Backends []string
}

// Coordinator is a server.Server that owns no keys.
type Coordinator = server.Server

// New builds a coordinator over opts.Backends, refusing an empty pool.
func New(opts Options) (*Coordinator, error) {
	if len(opts.Backends) == 0 {
		return nil, errors.New("cluster: no backends configured")
	}
	return server.New(server.Options{Peers: opts.Backends})
}
