package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// dist is a latency distribution in milliseconds.
type dist struct {
	name string
	ms   []float64
}

func (d *dist) add(t time.Duration) { d.ms = append(d.ms, float64(t)/float64(time.Millisecond)) }

// pct returns the nearest-rank p-th percentile (p in (0,1]) and how many
// samples lie strictly beyond its rank.
func (d *dist) pct(p float64) (float64, int) {
	n := len(d.ms)
	if n == 0 {
		return math.NaN(), 0
	}
	s := append([]float64(nil), d.ms...)
	sort.Float64s(s)
	rank := int(math.Ceil(p * float64(n)))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1], n - rank
}

// minTailSamples is how many samples must lie beyond a reported tail
// percentile.
const minTailSamples = 10

// tailLadder is the percentile ladder a tail is chosen from.
var tailLadder = []float64{0.5, 0.75, 0.9, 0.95, 0.99, 0.999}

// tailFor returns the highest ladder percentile that keeps at least
// minTailSamples samples beyond it for a distribution of n samples.
func tailFor(n int) float64 {
	best := 0.0
	for _, p := range tailLadder {
		if n-int(math.Ceil(p*float64(n))) >= minTailSamples {
			best = p
		}
	}
	return best
}

// summarize reports the distribution's median and its tail at percentile
// p (fixed per workload so runs compare like with like; see BENCHMARK.json),
// and notes the sample counts. It fails when fewer than minTailSamples
// samples lie beyond p.
func (b *bench) summarize(d *dist, p float64, p50Name, tailName string) error {
	med, _ := d.pct(0.5)
	tail, beyond := d.pct(p)
	if beyond < minTailSamples {
		return fmt.Errorf("%s: p%g has %d samples beyond it (n=%d), need %d",
			d.name, 100*p, beyond, len(d.ms), minTailSamples)
	}
	b.set(p50Name, med, "ms")
	b.set(tailName, tail, "ms")
	b.note("%s: n=%d p50=%.3fms p%g=%.3fms (%d samples beyond; highest percentile with >=%d beyond at this n: p%g)",
		d.name, len(d.ms), med, 100*p, tail, beyond, minTailSamples, 100*tailFor(len(d.ms)))
	return nil
}

// median of a float slice (NaN when empty).
func median(v []float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// maxRSSMiB is the process's peak resident set (VmHWM) in MiB.
func maxRSSMiB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return math.NaN()
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return math.NaN()
}

// memDelta is the change in allocation counters over an interval.
type memDelta struct {
	mallocs, bytes uint64
	gcs            uint32
}

// memSnap reads the runtime allocation counters.
func memSnap() runtime.MemStats {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m
}

func memSince(before runtime.MemStats) memDelta {
	after := memSnap()
	return memDelta{
		mallocs: after.Mallocs - before.Mallocs,
		bytes:   after.TotalAlloc - before.TotalAlloc,
		gcs:     after.NumGC - before.NumGC,
	}
}

// timeSetups runs setup n times and returns the median duration of one
// set-up. teardown (if non-nil) undoes every attempt but the last, untimed;
// the last attempt's state is kept for the timed phase.
func timeSetups(n int, setup func() error, teardown func()) (time.Duration, error) {
	var ds []float64
	for i := 0; i < n; i++ {
		t0 := time.Now()
		if err := setup(); err != nil {
			return 0, err
		}
		ds = append(ds, float64(time.Since(t0)))
		if teardown != nil && i < n-1 {
			teardown()
		}
	}
	return time.Duration(median(ds)), nil
}
