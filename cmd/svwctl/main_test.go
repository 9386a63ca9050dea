package main

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// TestBackendSet pins how svwctl turns -backends and -backends-file into
// the desired pool, at startup and on every SIGHUP: the union of both,
// order preserved, each member normalized the way placement hashes it.
func TestBackendSet(t *testing.T) {
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
		file string // file contents; "" = no -backends-file
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
			got, err := backendSet(c.flag, file)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, c.want) {
				t.Fatalf("backendSet(%q, file) = %q, want %q", c.flag, got, c.want)
			}
		})
	}

	t.Run("missing file", func(t *testing.T) {
		missing := filepath.Join(dir, "no-such-file")
		_, err := backendSet("http://a:1", missing)
		if err == nil || !strings.HasPrefix(err.Error(), "-backends-file: ") || !strings.Contains(err.Error(), missing) {
			t.Fatalf("err = %v, want a -backends-file error naming %s", err, missing)
		}
	})
}
