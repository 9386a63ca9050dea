// Command perfbench is the repository's end-to-end and per-layer
// benchmark. One invocation runs one workload in one process:
//
//	paper-exact     the svwexp -all evaluation per benchmark kernel, in two
//	                units (Figs. 5–7; Fig. 8 with the §3.6 SSN width and
//	                SSBF update studies), exact mode, fresh 2-worker engine
//	                per unit, no store
//	sampled-ladder  the Figs. 5–7 ladders under sampling at 10× the exact
//	                per-cell budget, fresh engine plus a memory-only
//	                checkpoint store per unit
//	fabric-serve    a closed loop of 2 clients against an in-process svwctl
//	                coordinator fronting 2 svwd backends over loopback HTTP:
//	                warm 60-cell registry sweeps plus cold single-cell runs
//
// Every output is checked (pinned digests, a pinned exact reference, and
// byte parity with the direct engine encoding); a mismatch counts as a
// failed operation. With -trace 0 the last stdout line carries the
// end-to-end metrics; with -trace 1 the run records spans around every
// call into a layer, replays the workload's own inputs through each
// layer's public functions, and reports per-layer metrics instead.
//
// Usage (run.py builds the binary and passes these through):
//
//	perfbench -workload paper-exact -seed 1 -seconds 30 -trace 0
//	perfbench -pin              # recompute the files under pinned/
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync/atomic"
	"time"
)

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last stdout line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// tally counts operations attempted and failed. A failure is an error, a
// non-200 response or an output-check mismatch.
type tally struct {
	attempted atomic.Int64
	failed    atomic.Int64
}

// record counts one operation, failed unless ok, and logs why it failed.
func (t *tally) record(ok bool, what string, args ...any) bool {
	t.attempted.Add(1)
	if !ok {
		t.failed.Add(1)
		fmt.Fprintf(os.Stderr, "perfbench: FAILED "+what+"\n", args...)
	}
	return ok
}

// bench is one run's shared state.
type bench struct {
	workload string
	seed     uint64
	seconds  time.Duration
	scratch  string // run-private directory, removed at exit

	tally   tally
	spans   *recorder // nil on untraced runs
	metrics map[string]metric
	notes   []string // report lines printed before the result line
}

func (b *bench) set(name string, v float64, unit string) {
	b.metrics[name] = metric{Value: v, Unit: unit}
}

func (b *bench) note(format string, args ...any) {
	b.notes = append(b.notes, fmt.Sprintf(format, args...))
}

// workloads maps each workload name to its runner. A runner sets up
// (several times, reporting the median as setup_s), runs the timed phase,
// checks every output and fills b.metrics.
var workloads = map[string]func(*bench) error{
	"paper-exact":    runPaperExact,
	"sampled-ladder": runSampledLadder,
	"fabric-serve":   runFabricServe,
}

func main() { os.Exit(realMain()) }

func realMain() int {
	name := flag.String("workload", "", "workload to run: paper-exact, sampled-ladder or fabric-serve")
	seed := flag.Uint64("seed", 1, "workload seed: unit order, sweep bench groups, cold cells and budgets")
	seconds := flag.Int("seconds", 20, "minimum length of the timed phase")
	traceFlag := flag.Int("trace", 0, "1 = traced run with layer replays, reporting per-layer metrics")
	scratch := flag.String("scratch", ".bench_build", "directory for run-private files and the span file")
	pin := flag.Bool("pin", false, "recompute the pinned reference and digests and write them to -pin-dir")
	pinDir := flag.String("pin-dir", "pinned", "output directory for -pin")
	flag.Parse()

	if *pin {
		if err := writePins(*pinDir); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: pin: %v\n", err)
			return 1
		}
		return 0
	}
	run, ok := workloads[*name]
	if !ok {
		names := make([]string, 0, len(workloads))
		for n := range workloads {
			names = append(names, n)
		}
		sort.Strings(names)
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want one of %s)\n", *name, strings.Join(names, ", "))
		return 2
	}
	if *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: -seconds must be >= 1 and -trace 0 or 1")
		return 2
	}
	if err := checkPins(); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: pinned data: %v\n", err)
		return 1
	}
	if err := os.MkdirAll(*scratch, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	dir, err := os.MkdirTemp(*scratch, "perfbench-run-")
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(dir)

	b := &bench{
		workload: *name,
		seed:     *seed,
		seconds:  time.Duration(*seconds) * time.Second,
		scratch:  dir,
		metrics:  map[string]metric{},
	}
	if *traceFlag == 1 {
		b.spans = newRecorder()
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s seed=%d seconds=%d trace=%d GOMAXPROCS=%d\n",
		b.workload, b.seed, *seconds, *traceFlag, runtime.GOMAXPROCS(0))
	if err := run(b); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", b.workload, err)
		return 1
	}

	want := endToEndNames
	if b.spans == nil {
		b.set("max_rss_mb", maxRSSMiB(), "MiB")
	} else {
		b.set("runtime.max_rss_mb", maxRSSMiB(), "MiB")
		want = nil
		for _, m := range perLayer {
			if _, ok := b.metrics[m.name]; !ok {
				b.set(m.name, 0, m.unit) // a layer this workload bypasses
			}
			want = append(want, m.name)
		}
		path := filepath.Join(*scratch, fmt.Sprintf("trace-%s-%d.json", b.workload, b.seed))
		if err := b.spans.write(path); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: writing spans: %v\n", err)
		} else {
			b.note("spans written to %s", path)
		}
	}
	out := result{
		Attempted: b.tally.attempted.Load(),
		Failed:    b.tally.failed.Load(),
		Metrics:   map[string]metric{},
	}
	for _, n := range want {
		m, ok := b.metrics[n]
		if !ok {
			fmt.Fprintf(os.Stderr, "perfbench: metric %s was not measured\n", n)
			return 1
		}
		out.Metrics[n] = m
	}
	out.Correct = out.Failed == 0 && out.Attempted > 0
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	for _, l := range b.notes {
		fmt.Println(l)
	}
	fmt.Println(string(line))
	return 0
}

// endToEndNames and perLayer are the metric sets BENCHMARK.json declares:
// an untraced run reports the first, a traced run the second.
var endToEndNames = []string{
	"sim_insts_per_s", "cells_per_s", "sweep_p50_ms", "sweep_tail_ms",
	"cold_p50_ms", "cold_tail_ms", "ipc_err_pct", "rex_err_pp",
	"setup_s", "max_rss_mb",
}

// perLayer lists the per-layer metrics with their units. A layer a
// workload bypasses reports 0 (see BENCHMARK.json for which apply where).
var perLayer = []struct{ name, unit string }{
	{"workload.build_ms", "ms"},
	{"emu.ff_insts_per_s", "insts/s"}, {"emu.ff_share", "ratio"},
	{"pipeline.insts_per_s", "insts/s"}, {"pipeline.ns_per_cycle", "ns"}, {"pipeline.reset_us", "us"},
	{"pipeline.allocs_per_cell", "count"}, {"pipeline.bytes_per_cell", "B"},
	{"sim.cycles", "count"}, {"sim.committed", "count"}, {"sim.rex_loads", "count"}, {"sim.rex_filtered", "count"},
	{"sim.ssbf_lookups", "count"}, {"sim.mispredicts", "count"}, {"sim.ordering_violations", "count"},
	{"sim.stall_rex_wait", "count"},
	{"engine.cells_run", "count"}, {"engine.memo_hits", "count"}, {"engine.parallel_eff", "ratio"},
	{"engine.fast_forwards", "count"}, {"engine.ckpt_hits", "count"}, {"engine.ckpt_misses", "count"},
	{"store.get_mem_us", "us"}, {"store.get_disk_us", "us"}, {"store.put_us", "us"},
	{"store.mem_hits", "count"}, {"store.disk_hits", "count"}, {"store.peer_hits", "count"},
	{"store.misses", "count"}, {"store.coalesced", "count"}, {"store.writebehind_drops", "count"},
	{"api.decode_us", "us"}, {"api.encode_us", "us"},
	{"server.sweep_us", "us"}, {"server.run_us", "us"},
	{"cluster.hop_us", "us"}, {"cluster.forwards_per_sweep", "count"},
	{"cluster.retries", "count"}, {"cluster.hedges", "count"}, {"cluster.job_errors", "count"},
	{"runtime.gc_cycles", "count"}, {"runtime.alloc_mb", "MiB"}, {"runtime.max_rss_mb", "MiB"},
	{"share.pipeline_pct", "%"}, {"share.emu_pct", "%"}, {"share.engine_pct", "%"}, {"share.store_pct", "%"},
	{"share.api_pct", "%"}, {"share.server_pct", "%"}, {"share.cluster_pct", "%"}, {"share.http_pct", "%"},
	{"share.bench_pct", "%"},
	{"trace.overhead_pct", "%"},
}
