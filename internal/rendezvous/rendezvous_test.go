package rendezvous

import (
	"fmt"
	"hash/fnv"
	"reflect"
	"testing"
)

func members(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("http://backend-%d:97%02d", i, i)
	}
	return out
}

func TestRankDeterministicAndComplete(t *testing.T) {
	ms := members(5)
	for i := 0; i < 50; i++ {
		key := fmt.Sprintf("key-%d", i)
		r1 := Rank(ms, key)
		r2 := Rank(ms, key)
		if len(r1) != len(ms) {
			t.Fatalf("rank dropped members: %v", r1)
		}
		seen := make(map[string]bool)
		for j := range r1 {
			if r1[j] != r2[j] {
				t.Fatalf("rank not deterministic for %q: %v vs %v", key, r1, r2)
			}
			seen[r1[j]] = true
		}
		if len(seen) != len(ms) {
			t.Fatalf("rank repeated a member for %q: %v", key, r1)
		}
	}
}

func TestOwnerMatchesRankHead(t *testing.T) {
	ms := members(7)
	for i := 0; i < 200; i++ {
		key := fmt.Sprintf("cfg-%d|bench|10000", i)
		if got, want := Owner(ms, key), Rank(ms, key)[0]; got != want {
			t.Fatalf("Owner(%q)=%q, Rank head=%q", key, got, want)
		}
	}
}

func TestRemovalOnlyRemapsOwnedKeys(t *testing.T) {
	ms := members(6)
	removed := ms[2]
	smaller := append(append([]string{}, ms[:2]...), ms[3:]...)
	for i := 0; i < 300; i++ {
		key := fmt.Sprintf("k%d", i)
		before := Owner(ms, key)
		after := Owner(smaller, key)
		if before != removed && after != before {
			t.Fatalf("key %q moved from %q to %q though %q was removed", key, before, after, removed)
		}
	}
}

func TestOwnerEmptySet(t *testing.T) {
	if got := Owner(nil, "k"); got != "" {
		t.Fatalf("Owner(nil)=%q, want empty", got)
	}
}

// TestNormalizedSpellingsRankIdentically: URLs that differ only by
// surrounding space or a trailing slash normalize to one member, so they
// rank — and place keys — identically.
func TestNormalizedSpellingsRankIdentically(t *testing.T) {
	spellings := []string{"http://h:1/", " http://h:1", "http://h:1"}
	for _, s := range spellings {
		if got := Normalize(s); got != "http://h:1" {
			t.Fatalf("Normalize(%q) = %q, want %q", s, got, "http://h:1")
		}
	}
	for i := 0; i < 50; i++ {
		key := fmt.Sprintf("key-%d", i)
		var want []string
		for _, s := range spellings {
			got := Rank([]string{Normalize(s), "http://other:2"}, key)
			if want == nil {
				want = got
			} else if !reflect.DeepEqual(got, want) {
				t.Fatalf("key %q: %q ranks %v, want %v", key, s, got, want)
			}
		}
	}
}

// TestScoreIsFNV1a pins the placement hash: every member of a fabric must
// score keys alike, so Score stays hash/fnv's New64a over member, 0x00, key.
func TestScoreIsFNV1a(t *testing.T) {
	for _, tc := range [][2]string{{"", ""}, {"http://h:1", "gcc|10000|ab12"}, {"ab", "c"}, {"a", "bc"}} {
		h := fnv.New64a()
		h.Write([]byte(tc[0] + "\x00" + tc[1]))
		if got, want := Score(tc[0], tc[1]), h.Sum64(); got != want {
			t.Errorf("Score(%q, %q) = %#x, want FNV-1a %#x", tc[0], tc[1], got, want)
		}
	}
}

func BenchmarkOrder(b *testing.B) {
	ms := members(2)
	key := "gcc|10000|1ebd853f4bdda330a630f9608c77c8a6b2c521e004fac6b60d9ffb08f759b885"
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Order(ms, key)
	}
}
