package cluster

import "svwsim/internal/rendezvous"

// Job routing: rendezvous (highest-random-weight) hashing on the engine
// memo key, delegating the hash itself to internal/rendezvous so the
// backends' store-owner election (internal/server) uses bit-identical
// placement. Every (coordinator, backend set) pair computes the same
// preference order for a key — FNV-1a is unseeded, so the order is also
// stable across processes and restarts. The properties the fabric leans
// on:
//
//   - affinity: a key's primary backend is a pure function of (key,
//     backend URL set), so repeats of a job always land on the same
//     backend and its LRU/memo stay hot;
//   - minimal disruption: removing a backend only remaps the keys it
//     owned (every other key's top choice is unchanged), and adding one
//     only claims the keys it now wins — no global reshuffle;
//   - built-in failover order: the second-ranked backend is the natural
//     retry/hedge target, itself deterministic per key, so retried work
//     warms one fallback cache instead of spraying the pool.

// rank returns indices into backends in the key's rendezvous order
// (rendezvous.Order over their URLs): backends[rank[0]] is the key's
// home; later entries are its failover order.
func rank(backends []*backend, key string) []int {
	urls := make([]string, len(backends))
	for i, b := range backends {
		urls[i] = b.url
	}
	return rendezvous.Order(urls, key)
}
