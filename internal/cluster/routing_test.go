package cluster

import (
	"fmt"
	"reflect"
	"testing"

	"svwsim/internal/rendezvous"
	"svwsim/internal/sim"
	"svwsim/internal/sim/engine"
	"svwsim/internal/workload"
)

// sweepKeys returns the engine memo keys of the full config-registry ×
// full bench-registry matrix — the real key population the fabric routes.
func sweepKeys(t *testing.T, insts uint64) []string {
	t.Helper()
	var keys []string
	for _, cname := range sim.ConfigNames() {
		cfg, ok := sim.ConfigByName(cname)
		if !ok {
			t.Fatalf("unknown config %q", cname)
		}
		for _, bench := range workload.Names() {
			keys = append(keys, engine.Fingerprint(cfg, bench, insts))
		}
	}
	return keys
}

// TestRankGolden pins the rendezvous ranking the coordinator and every svwd walk
// cells in (rendezvous.Rank) for fixed inputs. The
// expected orders were computed by this same implementation and are
// asserted verbatim: because the hash is unseeded FNV-1a, any process on
// any platform must reproduce them exactly — the determinism the fabric
// relies on for cross-process cache affinity. If this test fails after an
// intentional hash change, every backend's cache is invalidated at once;
// change the hash knowingly or not at all.
func TestRankGolden(t *testing.T) {
	urls := []string{"http://10.0.0.1:7411", "http://10.0.0.2:7411", "http://10.0.0.3:7411"}
	cases := []struct {
		key  string
		want []string
	}{
		{"alpha", []string{"http://10.0.0.2:7411", "http://10.0.0.1:7411", "http://10.0.0.3:7411"}},
		{"beta", []string{"http://10.0.0.3:7411", "http://10.0.0.1:7411", "http://10.0.0.2:7411"}},
		{"gamma", []string{"http://10.0.0.3:7411", "http://10.0.0.2:7411", "http://10.0.0.1:7411"}},
		{"delta", []string{"http://10.0.0.1:7411", "http://10.0.0.3:7411", "http://10.0.0.2:7411"}},
		{"epsilon", []string{"http://10.0.0.2:7411", "http://10.0.0.1:7411", "http://10.0.0.3:7411"}},
		{"zeta", []string{"http://10.0.0.3:7411", "http://10.0.0.1:7411", "http://10.0.0.2:7411"}},
		{"{SVW:{Bits:12}}|gcc|30000", []string{"http://10.0.0.3:7411", "http://10.0.0.1:7411", "http://10.0.0.2:7411"}},
		{"{SVW:{Bits:12}}|twolf|30000", []string{"http://10.0.0.2:7411", "http://10.0.0.3:7411", "http://10.0.0.1:7411"}},
	}
	for _, c := range cases {
		if got := rendezvous.Rank(urls, c.key); !reflect.DeepEqual(got, c.want) {
			t.Errorf("rank(%q):\n got %v\nwant %v", c.key, got, c.want)
		}
	}
}

// TestRankOrderIndependent: placement depends on the backend URL set, not
// the order the operator happened to list it in.
func TestRankOrderIndependent(t *testing.T) {
	a := []string{"http://b1", "http://b2", "http://b3"}
	b := []string{"http://b3", "http://b1", "http://b2"}
	for _, key := range sweepKeys(t, 30_000)[:40] {
		if ga, gb := rendezvous.Rank(a, key)[0], rendezvous.Rank(b, key)[0]; ga != gb {
			t.Fatalf("key %q: home %q with one listing order, %q with another", key, ga, gb)
		}
	}
}

// TestRankStableUnderBackendChange: removing a backend moves only the
// keys it owned (everyone else's whole preference order among the
// survivors is unchanged), and adding it back restores the original
// placement — the property that lets a fabric scale without a global
// cache reshuffle.
func TestRankStableUnderBackendChange(t *testing.T) {
	full := []string{"http://b1", "http://b2", "http://b3"}
	reduced := []string{"http://b1", "http://b2"}
	removed := "http://b3"

	keys := sweepKeys(t, 30_000)
	moved := 0
	for _, key := range keys {
		before := rendezvous.Rank(full, key)
		after := rendezvous.Rank(reduced, key)
		// The survivors' relative order must be identical with and without
		// the removed backend present.
		var survivors []string
		for _, u := range before {
			if u != removed {
				survivors = append(survivors, u)
			}
		}
		if !reflect.DeepEqual(survivors, after) {
			t.Fatalf("key %q: survivor order changed: %v -> %v", key, survivors, after)
		}
		if before[0] == removed {
			moved++
		} else if before[0] != after[0] {
			t.Fatalf("key %q: home moved from %q to %q though %q was not its home",
				key, before[0], after[0], removed)
		}
	}
	if moved == 0 {
		t.Fatal("no key was homed on the removed backend; the stability check had no teeth")
	}
	t.Logf("%d/%d keys moved (only the removed backend's share)", moved, len(keys))
}

// TestRankBalance: over the real full-registry × 16-bench sweep key
// population, rendezvous hashing spreads homes across the pool within a
// loose tolerance (no backend starved, none doubly loaded).
func TestRankBalance(t *testing.T) {
	for _, n := range []int{2, 3, 5} {
		var urls []string
		for i := 0; i < n; i++ {
			urls = append(urls, fmt.Sprintf("http://10.0.0.%d:7411", i+1))
		}
		keys := sweepKeys(t, 30_000)
		counts := make(map[string]int)
		for _, key := range keys {
			counts[rendezvous.Rank(urls, key)[0]]++
		}
		mean := len(keys) / n
		for _, u := range urls {
			got := counts[u]
			if got < mean/2 || got > mean*2 {
				t.Errorf("%d backends: %s homes %d keys, want within [%d, %d] of mean %d",
					n, u, got, mean/2, mean*2, mean)
			}
		}
		t.Logf("%d backends over %d keys: %v", n, len(keys), counts)
	}
}

// TestScoreSeparator: the url/key boundary is part of the hash input, so
// concatenation collisions ("ab"+"c" vs "a"+"bc") score differently.
func TestScoreSeparator(t *testing.T) {
	if rendezvous.Score("ab", "c") == rendezvous.Score("a", "bc") {
		t.Fatal("score collides across the url/key boundary")
	}
}
