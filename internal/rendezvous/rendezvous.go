// Package rendezvous implements highest-random-weight (rendezvous)
// hashing over string member identities. It is the single placement
// function for the whole fabric: every svwd, svwctl included, sends a
// cell to its owner and walks a failed owner's cells on in this order
// (internal/server), so all of them agree on which member holds a key's
// persistent entry without exchanging any state beyond the member list
// itself.
//
// The hash is unseeded FNV-1a over member + 0x00 + key, so the ranking
// is a pure function of (member set, key) — stable across processes,
// restarts, and machines. Removing a member only remaps the keys it
// owned; adding one only claims the keys it now wins.
package rendezvous

import (
	"cmp"
	"slices"
	"strings"
)

// FNV-1a's 64-bit parameters (hash/fnv).
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// Score is one member's rendezvous weight for a key: FNV-1a, as
// hash/fnv's New64a computes it, over member, a 0x00 byte and key. The
// separator keeps ("ab","c") and ("a","bc") distinct. It hashes the
// strings in place, so scoring allocates nothing.
func Score(member, key string) uint64 {
	h := uint64(fnvOffset)
	for i := 0; i < len(member); i++ {
		h = (h ^ uint64(member[i])) * fnvPrime
	}
	h *= fnvPrime // the separator: h ^ 0x00 == h
	for i := 0; i < len(key); i++ {
		h = (h ^ uint64(key[i])) * fnvPrime
	}
	return h
}

// Normalize canonicalizes a member URL: surrounding space and trailing
// slashes are insignificant, so "http://h:1/" and " http://h:1" name the
// member "http://h:1". A member's normalized URL is its hash input on
// every side of the fabric — learned and configured member lists and
// svwctl's pool alike — so all of them normalize through here.
func Normalize(u string) string {
	return strings.TrimRight(strings.TrimSpace(u), "/")
}

// Order returns the indices of members ordered by descending Score for
// key, ties broken by member string then original index, for full
// determinism. members[Order[0]] is the key's owner; later entries are
// its failover order.
func Order(members []string, key string) []int {
	order := make([]int, len(members))
	scores := make([]uint64, len(members))
	for i, m := range members {
		order[i] = i
		scores[i] = Score(m, key)
	}
	slices.SortFunc(order, func(a, b int) int {
		if c := cmp.Compare(scores[b], scores[a]); c != 0 {
			return c
		}
		if c := strings.Compare(members[a], members[b]); c != 0 {
			return c
		}
		return a - b
	})
	return order
}

// Rank is Order as member strings: Rank[0] is the key's owner.
func Rank(members []string, key string) []string {
	out := make([]string, len(members))
	for i, idx := range Order(members, key) {
		out[i] = members[idx]
	}
	return out
}

// Owner returns the top-ranked member for key, or "" for an empty set.
func Owner(members []string, key string) string {
	if len(members) == 0 {
		return ""
	}
	best := 0
	bestScore := Score(members[0], key)
	for i := 1; i < len(members); i++ {
		s := Score(members[i], key)
		if s > bestScore || (s == bestScore && members[i] < members[best]) {
			best, bestScore = i, s
		}
	}
	return members[best]
}
