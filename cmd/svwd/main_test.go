package main

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"svwsim/internal/server"
)

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

// TestParsePeersNeedsSelf: at startup the parsed members go to
// server.New with -peer-self, which refuses a self outside them — svwd
// would own no keys while believing it owned some. Without -peer-self the
// same members make the daemon the coordinator.
func TestParsePeersNeedsSelf(t *testing.T) {
	start := func(peers, self string) error {
		m, err := parsePeers(peers, "")
		if err != nil {
			return err
		}
		s, err := server.New(server.Options{Workers: 1, Peers: m, PeerSelf: self})
		if err == nil {
			s.Close()
		}
		return err
	}
	for _, c := range []struct{ peers, self string }{
		{"", ""},
		{"http://a:1,http://b:2", "http://b:2/"},
		{"http://a:1,http://b:2", ""}, // the coordinator
	} {
		if err := start(c.peers, c.self); err != nil {
			t.Errorf("-peers %q -peer-self %q: %v", c.peers, c.self, err)
		}
	}
	for _, c := range []struct{ peers, self string }{
		{"http://a:1,http://b:2", "http://c:3"},
		{"", "http://c:3"},
		{"a:1,b:2", "a:1"}, // no scheme: never forwardable
	} {
		if err := start(c.peers, c.self); err == nil {
			t.Errorf("-peers %q -peer-self %q: no error", c.peers, c.self)
		}
	}
}

// TestPeersFile pins how svwd turns -peers and -peers-file into the
// members, at startup and on every SIGHUP: the union of both, order
// preserved, each member normalized the way placement hashes it.
func TestPeersFile(t *testing.T) {
	dir := t.TempDir()
	write := func(name, content string) string {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	for _, c := range []struct {
		name string
		flag string
		file string // file contents; "" = no -peers-file
		want []string
	}{
		{
			name: "flag and file union",
			flag: "http://a:1,http://b:2",
			file: "http://c:3\n",
			want: []string{"http://a:1", "http://b:2", "http://c:3"},
		},
		{
			name: "spellings dedupe",
			flag: "http://a:1/, http://a:1 ,http://b:2",
			file: " http://b:2/\nhttp://a:1//\n",
			want: []string{"http://a:1", "http://b:2"},
		},
		{
			name: "comments and blank lines",
			file: "# the pool\n\n  \nhttp://a:1 # primary\n#http://gone:9\nhttp://b:2\n",
			want: []string{"http://a:1", "http://b:2"},
		},
		{
			name: "empty flag, no file",
			want: nil,
		},
	} {
		t.Run(c.name, func(t *testing.T) {
			file := ""
			if c.file != "" {
				file = write(strings.ReplaceAll(c.name, " ", "_"), c.file)
			}
			got, err := parsePeers(c.flag, file)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, c.want) {
				t.Fatalf("parsePeers(%q, file) = %q, want %q", c.flag, got, c.want)
			}
		})
	}

	t.Run("missing file", func(t *testing.T) {
		missing := filepath.Join(dir, "no-such-file")
		_, err := parsePeers("http://a:1", missing)
		if err == nil || !strings.HasPrefix(err.Error(), "-peers-file: ") || !strings.Contains(err.Error(), missing) {
			t.Fatalf("err = %v, want a -peers-file error naming %s", err, missing)
		}
	})

	// The SIGHUP path: a member whose -peer-self is only in the file
	// starts, grows when the file does, and refuses a reload whose file
	// no longer lists it, keeping its members.
	t.Run("reload", func(t *testing.T) {
		file := write("reload", "http://b:2\n")
		m, err := parsePeers("http://a:1", file)
		if err != nil {
			t.Fatal(err)
		}
		s, err := server.New(server.Options{Workers: 1, Peers: m, PeerSelf: "http://b:2"})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		reload := func(content string) ([]string, error) {
			write("reload", content)
			m, err := parsePeers("http://a:1", file)
			if err != nil {
				return nil, err
			}
			added, _, err := s.SetPeers(m)
			return added, err
		}
		if added, err := reload("http://b:2\nhttp://c:3\n"); err != nil || !reflect.DeepEqual(added, []string{"http://c:3"}) {
			t.Fatalf("growing reload: added %q, %v", added, err)
		}
		if _, err := reload("http://c:3\n"); err == nil {
			t.Fatal("a reload dropping -peer-self was accepted")
		}
		if _, rows := s.Routing(); len(rows) != 3 {
			t.Fatalf("refused reload changed the members: %d rows", len(rows))
		}
	})
}
