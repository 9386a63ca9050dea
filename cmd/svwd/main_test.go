package main

import "testing"

func TestParseClientWeights(t *testing.T) {
	weights, err := parseClientWeights("bulk=1, interactive=4,batch=2")
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]int{"bulk": 1, "interactive": 4, "batch": 2}
	if len(weights) != len(want) {
		t.Fatalf("got %v, want %v", weights, want)
	}
	for name, w := range want {
		if weights[name] != w {
			t.Errorf("%s: weight %d, want %d", name, weights[name], w)
		}
	}
	if w, err := parseClientWeights(""); err != nil || w != nil {
		t.Errorf("empty spec: got %v, %v; want nil, nil", w, err)
	}
	for _, bad := range []string{"bulk", "bulk=", "bulk=0", "bulk=-1", "=3", "bulk=x"} {
		if _, err := parseClientWeights(bad); err == nil {
			t.Errorf("spec %q: no error", bad)
		}
	}
}

// TestParsePeersNeedsSelf: a member list without this daemon's own URL in
// it would make svwd a router that never computes, so it is refused.
func TestParsePeersNeedsSelf(t *testing.T) {
	if m, err := parsePeers("", ""); err != nil || m != nil {
		t.Errorf("no peers: got %v, %v; want nil, nil", m, err)
	}
	m, err := parsePeers("http://a:1,http://b:2", "http://b:2/")
	if err != nil || len(m) != 2 {
		t.Errorf("self among peers: got %v, %v", m, err)
	}
	for _, self := range []string{"", "http://c:3"} {
		if _, err := parsePeers("http://a:1,http://b:2", self); err == nil {
			t.Errorf("-peer-self %q: no error", self)
		}
	}
}
