package server

import (
	"context"

	"svwsim/internal/store"
)

// serverCheckpoints is the engine's checkpoint view of the server's
// sharded store: a probe walks the local tiers first, then the key's
// rendezvous owner over GET /v1/store/{key} — a fabric member
// fast-forwards each skip point once and every peer restores the warm
// state instead of re-emulating it. Peer-served checkpoints are promoted
// into the local memory tier only, so the persistent copy stays where the
// sharding map says it lives.
type serverCheckpoints struct{ s *Server }

func (c serverCheckpoints) GetCheckpoint(key string) ([]byte, bool) {
	val, origin := c.s.store.Get(key)
	if origin != store.OriginMiss {
		c.s.store.AccountGet(origin)
		return val, true
	}
	// The engine probes mid-job with no request context in scope;
	// peerFetch bounds the read with its own peer timeout.
	if val, ok := c.s.peerFetch(context.Background(), key); ok {
		c.s.store.PutMemory(key, val)
		c.s.store.AccountGet(store.OriginPeer)
		return val, true
	}
	return nil, false
}

func (c serverCheckpoints) PutCheckpoint(key string, val []byte) {
	c.s.store.Put(key, val)
}
