package main

import (
	"bytes"
	"strings"
	"testing"

	"svwsim/internal/api"
	"svwsim/internal/sim"
	"svwsim/internal/sim/engine"
)

// TestJSONMatchesEngine: svwsim -json over 3 configurations × 2 benchmarks
// prints the same bytes at -j 1 and -j 4, and those bytes are the
// concatenated api.MarshalResult encodings of the engine's results for the
// same cells, in configuration-major order.
func TestJSONMatchesEngine(t *testing.T) {
	configs := []string{"nlq", "ssq+svw", "rle+svw"}
	benches := []string{"gcc", "twolf"}
	const insts = "10000"
	out := map[string]string{}
	for _, j := range []string{"1", "4"} {
		var stdout, stderr bytes.Buffer
		code := run([]string{"-json", "-j", j, "-insts", insts,
			"-config", strings.Join(configs, ","), "-bench", strings.Join(benches, ",")},
			&stdout, &stderr)
		if code != 0 {
			t.Fatalf("-j %s: exit %d: %s", j, code, stderr.String())
		}
		out[j] = stdout.String()
	}
	if out["1"] != out["4"] {
		t.Fatalf("-j 1 and -j 4 outputs differ:\n%s\n---\n%s", out["1"], out["4"])
	}

	var want bytes.Buffer
	for _, c := range configs {
		cfg, _ := sim.ConfigByName(c)
		for _, b := range benches {
			res, err := engine.Run(cfg, b, 10_000)
			if err != nil {
				t.Fatal(err)
			}
			body, err := api.MarshalResult(res)
			if err != nil {
				t.Fatal(err)
			}
			want.Write(body)
		}
	}
	if out["1"] != want.String() {
		t.Fatalf("svwsim -json differs from the engine's results:\n got %s\nwant %s", out["1"], want.String())
	}
}

// TestUsageErrors: unknown names and incoherent sample specs exit 2.
func TestUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-config", "no-such-config"},
		{"-bench", "no-such-bench"},
		{"-sample-detail", "0", "-sample-period", "10"},
		{"-no-such-flag"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 2 {
			t.Errorf("%v: exit %d, want 2 (stderr %q)", args, code, stderr.String())
		}
	}
}
