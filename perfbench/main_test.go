package main

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"
	"time"

	"svwsim/internal/api"
	"svwsim/internal/sim"
	"svwsim/internal/sim/engine"
)

func loadPins(t *testing.T) {
	t.Helper()
	if err := checkPins(); err != nil {
		t.Fatal(err)
	}
}

// The output checks have teeth: a unit whose results are intact passes,
// and the same unit with one result corrupted is counted as a failed
// operation.
func TestCorruptedUnitResultCountsAsFailed(t *testing.T) {
	loadPins(t)
	b := &bench{metrics: map[string]metric{}}
	u := exactUnit{bench: "vortex"}
	out, err := u.run(context.Background(), newUnitEngine(false), nil)
	if !b.checkUnit(u, out, err) {
		t.Fatalf("intact unit failed its check")
	}
	var r engine.Result
	if err := json.Unmarshal(out.output.h[0], &r); err != nil {
		t.Fatal(err)
	}
	r.Stats.Cycles++
	bad, err := api.MarshalResult(r)
	if err != nil {
		t.Fatal(err)
	}
	out.output.h[0] = bad
	if b.checkUnit(u, out, nil) {
		t.Fatal("corrupted unit passed its check")
	}
	if a, f := b.tally.attempted.Load(), b.tally.failed.Load(); a != 2 || f != 1 {
		t.Fatalf("attempted=%d failed=%d, want 2 and 1", a, f)
	}
}

// A fabric response that differs from the direct engine encoding by one
// byte fails, for warm sweeps and for cold runs.
func TestCorruptedFabricResponseCountsAsFailed(t *testing.T) {
	loadPins(t)
	b := &bench{metrics: map[string]metric{}}
	want, err := fabricCellBody("ssq+svw", "gzip", fabricInsts)
	if err != nil {
		t.Fatal(err)
	}
	if !b.checkWarm(200, want, nil, want) {
		t.Fatal("intact warm body failed its check")
	}
	bad := bytes.Replace(want, []byte(`"Cycles": `), []byte(`"Cycles": 1`), 1)
	if b.checkWarm(200, bad, nil, want) {
		t.Fatal("corrupted warm body passed its check")
	}
	if b.checkWarm(503, want, nil, want) {
		t.Fatal("non-200 warm response passed its check")
	}
	run := &coldRun{config: "ssq+svw", bench: "gzip", insts: fabricInsts}
	b.verifyCold([]coldResult{{run: run, body: want}, {run: run, body: bad}})
	if a, f := b.tally.attempted.Load(), b.tally.failed.Load(); a != 5 || f != 3 {
		t.Fatalf("attempted=%d failed=%d, want 5 and 3", a, f)
	}
}

// The pinned exact reference is reproducible: a subset recomputed with
// exact runs matches it bit for bit, and so do sampled unit digests and
// fabric cell digests.
func TestPinnedReferenceSubset(t *testing.T) {
	loadPins(t)
	subset := [][2]string{{"base-nlq", "gzip"}, {"ssq+svw", "vortex"}, {"rle+svw", "eon.c"}}
	got, err := referenceCells(subset)
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range got {
		if want, ok := pinned.Reference[k]; !ok || want != v {
			t.Errorf("reference %s = %+v, pinned %+v", k, v, want)
		}
	}
	su := sampledUnit{ladder: sim.Fig6Ladder(), bench: "gzip"}
	out, err := su.run(context.Background(), newUnitEngine(true), nil)
	if err != nil || out.output.sum() != su.want() {
		t.Errorf("sampled unit %s digest %s, pinned %s (err %v)", su.name(), out.output.sum(), su.want(), err)
	}
	for _, c := range subset {
		body, err := fabricCellBody(c[0], c[1], fabricInsts)
		if err != nil || bodyDigest(body) != pinned.Fabric[cellKey(c[0], c[1])] {
			t.Errorf("fabric cell %v digest differs from the pin (err %v)", c, err)
		}
	}
}

// splitCells recovers each cell of a concatenated sweep body.
func TestSplitCells(t *testing.T) {
	a, _ := fabricCellBody("nlq", "gzip", 2000)
	c, _ := fabricCellBody("rle", "gzip", 2000)
	cells := splitCells(append(append([]byte(nil), a...), c...))
	if len(cells) != 2 || !bytes.Equal(cells[0], a) || !bytes.Equal(cells[1], c) {
		t.Fatalf("split into %d cells", len(cells))
	}
}

func TestTailFor(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{{20, 0.5}, {39, 0.5}, {40, 0.75}, {48, 0.75}, {100, 0.9}, {144, 0.9}, {200, 0.95}, {1000, 0.99}, {10000, 0.999}} {
		if got := tailFor(tc.n); got != tc.want {
			t.Errorf("tailFor(%d) = %g, want %g", tc.n, got, tc.want)
		}
	}
	// The fixed tails keep ten samples beyond them at the minimum counts.
	for _, tc := range []struct {
		n int
		p float64
	}{{exactMinRounds * 32, exactSweepPct}, {sampledMinRounds * 48, sampledSweepPct},
		{sampledMinRounds * 240, sampledColdPct}, {fabricMinSweeps, fabricSweepPct}, {fabricMinCold, fabricColdPct}} {
		d := dist{ms: make([]float64, tc.n)}
		if _, beyond := d.pct(tc.p); beyond < minTailSamples {
			t.Errorf("p%g at n=%d leaves %d samples beyond", 100*tc.p, tc.n, beyond)
		}
	}
}

// Self time is a span's duration minus the union of its children.
func TestSelfTimes(t *testing.T) {
	r := newRecorder()
	r.spans = []span{
		{Name: "unit", Layer: "bench", Parent: -1, Start: 0, End: 100},
		{Name: "a", Layer: "engine", Parent: 0, Start: 10, End: 50},
		{Name: "b", Layer: "store", Parent: 0, Start: 40, End: 70},
		{Name: "c", Layer: "store", Parent: 1, Start: 20, End: 30},
	}
	got := r.selfTimes(nil)
	want := map[string]time.Duration{"bench": 40, "engine": 30, "store": 40}
	for l, d := range want {
		if got[l] != d {
			t.Errorf("self[%s] = %d, want %d", l, got[l], d)
		}
	}
}
