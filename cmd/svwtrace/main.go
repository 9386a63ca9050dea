// Command svwtrace prints a SimpleScalar-style pipetrace: one line per
// committed instruction with its fetch/rename/issue/complete/rex/commit
// cycles and SVW annotations, for a window of the run. Useful for seeing
// the re-execution pipeline's serialization (stores commit only after older
// marked loads clear the rex stage) and the filter excusing loads.
//
//	go run ./cmd/svwtrace -bench gcc -config ssq+svw -start 20000 -n 40
//
// Flags mirror cmd/svwsim's configuration names. Exit status: 0 success,
// 1 a failed run, 2 bad usage or an unknown config or benchmark.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"svwsim/internal/pipeline"
	"svwsim/internal/sim"
	"svwsim/internal/workload"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is svwtrace with its arguments and output streams made explicit; it
// returns the exit status: 0 success, 1 a failed run, 2 bad usage or an
// unknown config or benchmark.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("svwtrace", flag.ContinueOnError)
	fs.SetOutput(stderr)
	bench := fs.String("bench", "gcc", "benchmark kernel")
	config := fs.String("config", "ssq+svw", "machine configuration")
	start := fs.Uint64("start", 20_000, "first committed instruction to trace")
	n := fs.Uint64("n", 40, "instructions to trace")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	cfg, ok := sim.ConfigByName(*config)
	if !ok {
		fmt.Fprintf(stderr, "svwtrace: unknown config %q\n", *config)
		return 2
	}
	if _, ok := workload.Get(*bench); !ok {
		fmt.Fprintf(stderr, "svwtrace: unknown benchmark %q\n", *bench)
		return 2
	}
	// cfg is this run's own copy: the limits and the trace hook set here
	// never reach another lookup of the same name.
	cfg.MaxInsts = *start + *n + 1000
	cfg.WarmupInsts = 0

	fmt.Fprintf(stdout, "%8s %-26s %9s %9s %9s %9s %9s %9s  flags\n",
		"seq", "instruction", "fetch", "rename", "issue", "complete", "rex", "commit")
	traced := uint64(0)
	var base uint64
	cfg.TraceCommit = func(r pipeline.TraceRecord) {
		if r.Seq < *start || traced >= *n {
			return
		}
		if traced == 0 {
			base = r.FetchC
		}
		traced++
		rex := "-"
		if r.RexDoneC != ^uint64(0) {
			rex = fmt.Sprint(int64(r.RexDoneC - base))
		}
		var flags []string
		if r.Marked {
			flags = append(flags, "marked")
		}
		if r.Filtered {
			flags = append(flags, "svw-filtered")
		}
		if r.Eliminated {
			flags = append(flags, "eliminated")
		}
		if r.Forwarded {
			flags = append(flags, "fwd")
		}
		fmt.Fprintf(stdout, "%8d %-26s %9d %9d %9d %9d %9s %9d  %s\n",
			r.Seq, r.Text,
			r.FetchC-base, r.RenameC-base, r.IssueC-base,
			r.CompleteC-base, rex, r.CommitC-base,
			strings.Join(flags, ","))
	}

	p := workload.BuildByName(*bench)
	core := pipeline.New(cfg, p)
	if err := core.Run(); err != nil {
		fmt.Fprintf(stderr, "svwtrace: %v\n", err)
		return 1
	}
	return 0
}
