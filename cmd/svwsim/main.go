// Command svwsim runs benchmark kernels on machine configurations and
// prints each run's statistics. -bench and -config take comma-separated
// lists; the cross product runs on the experiment engine with -j workers,
// identical (config, bench) pairs deduplicated, and results printed in
// job order regardless of completion order.
//
// Usage:
//
//	svwsim -bench vortex -config ssq+svw -insts 300000
//	svwsim -bench gcc,twolf -config ssq,ssq+svw -j 4 -json
//
// Configuration names come from the shared registry (sim.ConfigNames);
// -list prints both the benchmarks and the configurations.
//
// With -store-dir, runs go through the persistent result store shared
// with svwd (internal/store): already-stored jobs are answered
// from disk without simulating, and fresh results are written back — so a
// CLI sweep pre-warms the store a daemon later serves from, and vice
// versa. Output, including -json, is byte-identical either way.
//
// The -sample-* flags switch runs to sampled simulation (short detailed
// windows separated by functional fast-forward; see pipeline.SampleSpec).
// Sampled results live under their own store keys, and with -store-dir the
// fast-forward warm states are checkpointed into the store for reuse.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"svwsim/internal/api"
	"svwsim/internal/pipeline"
	"svwsim/internal/sim"
	"svwsim/internal/sim/engine"
	"svwsim/internal/store"
	"svwsim/internal/workload"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the command with its arguments and output streams; it returns the
// exit status: 2 for bad usage, 1 for a failed run, 0 otherwise.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("svwsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	bench := fs.String("bench", "gcc", "benchmark kernel(s), comma-separated (see -list)")
	config := fs.String("config", "base-nlq", "machine configuration(s), comma-separated")
	insts := fs.Uint64("insts", 300_000, "committed instructions to simulate")
	workers := fs.Int("j", 0, "parallel workers (0 = GOMAXPROCS)")
	timeout := fs.Duration("timeout", 0, "per-run wall-clock limit (0 = none)")
	jsonOut := fs.Bool("json", false, "machine-readable output")
	storeDir := fs.String("store-dir", "",
		"persistent result store directory shared with svwd (empty = off): "+
			"stored jobs are served from disk, fresh ones written back")
	storeMaxBytes := fs.Int64("store-max-bytes", 0,
		"persistent store size cap in bytes, LRU-GCed past it (0 = 1GiB default)")
	sampleWarmup := fs.Uint64("sample-warmup", 0,
		"sampled simulation: detailed warm-up commits per window (counters reset after)")
	sampleDetail := fs.Uint64("sample-detail", 0,
		"sampled simulation: measured commits per window (0 = exact simulation)")
	samplePeriod := fs.Uint64("sample-period", 0,
		"sampled simulation: committed instructions each window represents; "+
			"the gap past warmup+detail is fast-forwarded functionally")
	stats := fs.Bool("stats", false,
		"print engine sampling counters (fast-forwards, checkpoint hits) to stderr")
	list := fs.Bool("list", false, "list benchmarks and configurations, then exit")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	spec := pipeline.SampleSpec{Warmup: *sampleWarmup, Detail: *sampleDetail, Period: *samplePeriod}
	if err := spec.Validate(); err != nil {
		fmt.Fprintf(stderr, "svwsim: %v\n", err)
		return 2
	}

	if *list {
		fmt.Fprintln(stdout, "benchmarks:")
		for _, n := range workload.Names() {
			fmt.Fprintln(stdout, "  "+n)
		}
		fmt.Fprintln(stdout, "configs:")
		for _, n := range sim.ConfigNames() {
			fmt.Fprintln(stdout, "  "+n)
		}
		return 0
	}
	var jobs []engine.Job
	for _, cname := range strings.Split(*config, ",") {
		cfg, ok := sim.ConfigByName(cname)
		if !ok {
			fmt.Fprintf(stderr, "svwsim: unknown config %q\n", cname)
			return 2
		}
		for _, b := range strings.Split(*bench, ",") {
			if _, ok := workload.Get(b); !ok {
				fmt.Fprintf(stderr, "svwsim: unknown benchmark %q (try -list)\n", b)
				return 2
			}
			jobs = append(jobs, engine.Job{Study: "svwsim", Label: cfg.Name,
				Config: cfg, Bench: b, Insts: *insts, Sample: spec})
		}
	}

	var st *store.Store
	if *storeDir != "" {
		var err error
		st, err = store.Open(store.Options{Dir: *storeDir, MaxBytes: *storeMaxBytes})
		if err != nil {
			fmt.Fprintf(stderr, "svwsim: %v\n", err)
			return 1
		}
	}

	// Probe the store for every job; only the misses go to the engine. The
	// stored bytes are api.MarshalResult output — exactly what -json
	// prints — so served and simulated jobs are indistinguishable in the
	// output.
	bodies := make([][]byte, len(jobs))
	var sub []engine.Job
	var subIdx []int
	for i := range jobs {
		if st != nil {
			key := engine.SampledFingerprint(jobs[i].Config, jobs[i].Bench, jobs[i].Insts, jobs[i].Sample)
			if body, origin := st.Get(key); origin != store.OriginMiss {
				st.AccountGet(origin)
				bodies[i] = body
				continue
			}
		}
		sub = append(sub, jobs[i])
		subIdx = append(subIdx, i)
	}
	var sampleStats engine.SampleStats
	if len(sub) > 0 {
		eng := engine.New(*workers)
		eng.SetTimeout(*timeout)
		if st != nil {
			// The store doubles as the warm-state checkpoint tier: sampled
			// fast-forwards persist each skip point, so the next run (or a
			// daemon over the same directory) restores instead of emulating.
			eng.SetCheckpointStore(engine.StoreCheckpoints(st))
		}
		rs, err := eng.Run(sub, nil)
		if err != nil {
			fmt.Fprintf(stderr, "svwsim: %v\n", err)
			return 1
		}
		for s, r := range rs {
			body, err := api.MarshalResult(r.Result)
			if err != nil {
				fmt.Fprintf(stderr, "svwsim: %v\n", err)
				return 1
			}
			bodies[subIdx[s]] = body
			if st != nil {
				key := engine.SampledFingerprint(r.Job.Config, r.Job.Bench, r.Job.Insts, r.Job.Sample)
				st.Put(key, body)
			}
		}
		sampleStats = eng.Sample()
	}
	if *stats {
		fmt.Fprintf(stderr,
			"svwsim: sample: fast-forwards=%d ff-insts=%d ckpt-hits=%d ckpt-misses=%d ckpt-puts=%d\n",
			sampleStats.FastForwards, sampleStats.FastForwardInsts,
			sampleStats.CheckpointHits, sampleStats.CheckpointMisses, sampleStats.CheckpointPuts)
	}

	if *jsonOut {
		for _, body := range bodies {
			stdout.Write(body)
		}
		return 0
	}
	for i, body := range bodies {
		var res sim.Result
		if err := json.Unmarshal(body, &res); err != nil {
			fmt.Fprintf(stderr, "svwsim: decoding result: %v\n", err)
			return 1
		}
		if i > 0 {
			fmt.Fprintln(stdout)
		}
		printResult(stdout, &res)
	}
	return 0
}

func printResult(w io.Writer, res *sim.Result) {
	s := &res.Stats
	fmt.Fprintf(w, "bench            %s\n", res.Bench)
	fmt.Fprintf(w, "config           %s\n", res.Config)
	fmt.Fprintf(w, "cycles           %d\n", s.Cycles)
	fmt.Fprintf(w, "committed        %d\n", s.Committed)
	fmt.Fprintf(w, "IPC              %.3f\n", s.IPC())
	fmt.Fprintf(w, "loads            %d\n", s.CommittedLoads)
	fmt.Fprintf(w, "stores           %d\n", s.CommittedStores)
	fmt.Fprintf(w, "marked loads     %d (%.1f%%)\n", s.MarkedLoads, 100*s.MarkedRate())
	fmt.Fprintf(w, "re-executed      %d (%.1f%%)\n", s.RexLoads, 100*s.RexRate())
	fmt.Fprintf(w, "SVW filtered     %d\n", s.RexFiltered)
	fmt.Fprintf(w, "rex failures     %d\n", s.RexFailures)
	fmt.Fprintf(w, "eliminated       %d (%.1f%%) [reuse %d, bypass %d]\n",
		s.Eliminated, 100*s.ElimRate(), s.ElimReuse, s.ElimBypass)
	fmt.Fprintf(w, "order violations %d\n", s.OrderingViolations)
	fmt.Fprintf(w, "SQ/FSQ forwards  %d\n", s.SQForwards)
	fmt.Fprintf(w, "best-effort fwd  %d\n", s.BestEffortFwd)
	fmt.Fprintf(w, "mispredicts      %d (branch acc %.2f%%)\n", s.Mispredicts, 100*s.BranchAccuracy)
	fmt.Fprintf(w, "wrap drains      %d\n", s.WrapDrains)
	fmt.Fprintf(w, "I$/D$/L2 miss    %.2f%% / %.2f%% / %.2f%%\n",
		100*s.ICacheMissRate, 100*s.DCacheMissRate, 100*s.L2MissRate)
}
