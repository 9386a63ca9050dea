package main

import (
	"bytes"
	"testing"
)

// TestAllDeterministicAcrossWorkers runs svwexp -all -json at -j 1 and
// -j 2, twice each in one process, and requires byte-identical output: the
// later runs draw their cores from the engine's idle pool, which earlier
// runs filled, so a pooled core must simulate exactly like a new one.
func TestAllDeterministicAcrossWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	svwexp := func(j string) string {
		t.Helper()
		var stdout, stderr bytes.Buffer
		args := []string{"-all", "-json", "-benches", "gcc,twolf", "-insts", "2000", "-j", j}
		if code := run(args, &stdout, &stderr); code != 0 {
			t.Fatalf("svwexp %v: exit %d: %s", args, code, stderr.String())
		}
		return stdout.String()
	}
	want := svwexp("1")
	if want == "" {
		t.Fatal("svwexp -all -json printed nothing")
	}
	for i, j := range []string{"2", "1", "2"} {
		if got := svwexp(j); got != want {
			t.Fatalf("run %d at -j %s differs from the first run at -j 1", i+2, j)
		}
	}
}
