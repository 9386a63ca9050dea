package main

import (
	"bytes"
	"strings"
	"testing"
)

// trace runs svwtrace in-process and returns its exit status and output.
func trace(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

// An unknown config or benchmark is bad usage: exit status 2, a message
// naming it, and no trace.
func TestUnknownNamesExit2(t *testing.T) {
	for _, args := range [][]string{
		{"-config", "no-such-machine"},
		{"-bench", "no-such-kernel"},
		{"-no-such-flag"},
	} {
		code, out, errOut := trace(t, args...)
		if code != 2 || out != "" || errOut == "" {
			t.Errorf("%v: exit %d, stdout %q, stderr %q; want 2, nothing, a message", args, code, out, errOut)
		}
	}
}

// A -n 10 window prints the header and exactly ten rows, from -start on.
func TestWindowRows(t *testing.T) {
	code, out, errOut := trace(t, "-config", "ssq+svw", "-bench", "gcc", "-start", "2000", "-n", "10")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errOut)
	}
	lines := strings.Split(strings.TrimSuffix(out, "\n"), "\n")
	if len(lines) != 11 {
		t.Fatalf("%d lines, want the header and 10 rows:\n%s", len(lines), out)
	}
	if f := strings.Fields(lines[0]); len(f) < 2 || f[0] != "seq" || f[1] != "instruction" {
		t.Fatalf("header %q", lines[0])
	}
	if f := strings.Fields(lines[1]); len(f) == 0 || f[0] != "2000" {
		t.Fatalf("first row %q, want seq 2000", lines[1])
	}
}

// Two runs in one process print the same bytes. Each run sets the run
// limits and a trace hook on the configuration it resolved, so this also
// checks that a resolved configuration is the caller's own copy: a second
// lookup of the same name must not see the first run's changes.
func TestRepeatRunsIdentical(t *testing.T) {
	args := []string{"-config", "ssq+SVW+UPD", "-bench", "twolf", "-start", "1500", "-n", "25"}
	code1, out1, _ := trace(t, args...)
	if code1 != 0 {
		t.Fatalf("first run: exit %d", code1)
	}
	// A different window in between leaves its own limits on its copy.
	if code, _, _ := trace(t, "-config", "ssq+svw", "-bench", "twolf", "-start", "100", "-n", "5"); code != 0 {
		t.Fatalf("middle run: exit %d", code)
	}
	code2, out2, _ := trace(t, args...)
	if code2 != 0 || out1 != out2 {
		t.Fatalf("repeat run: exit %d, output differs:\n%s\n---\n%s", code2, out1, out2)
	}
}
