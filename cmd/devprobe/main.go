// Command devprobe is a development aid: it isolates individual config
// deltas between a study baseline and its optimized machine to attribute
// performance differences during tuning.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"svwsim/internal/pipeline"
	"svwsim/internal/sim"
	"svwsim/internal/sim/engine"
)

func main() {
	bench := flag.String("bench", "perl.d", "benchmark")
	insts := flag.Uint64("insts", 60_000, "instructions")
	flag.Parse()
	probe(os.Stdout, *bench, *insts)
}

// probe runs the RLE study's baseline plus three single-knob deltas and
// prints each machine's bottleneck breakdown.
func probe(w io.Writer, bench string, insts uint64) {
	run := func(label string, cfg pipeline.Config) {
		res, err := engine.Run(cfg, bench, insts)
		if err != nil {
			fmt.Fprintln(w, label, "ERR", err)
			return
		}
		s := &res.Stats
		fmt.Fprintf(w, "%-28s IPC=%.3f viol=%d rexflush=%d marked=%.1f%% rex=%.1f%% fwd=%d wD=%d wC=%d wSS=%d\n",
			label, s.IPC(), s.OrderingViolations, s.RexFlushes,
			100*s.MarkedRate(), 100*s.RexRate(), s.SQForwards,
			s.LoadWaitData, s.LoadWaitCommit, s.LoadWaitSS)
		fmt.Fprintf(w, "%-28s stalls: empty=%d incomplete=%d commitlat=%d rexwait=%d port=%d cycles=%d\n",
			"", s.StallHeadEmpty, s.StallIncomplete, s.StallCommitLat,
			s.StallRexWait, s.StallStorePort, s.Cycles)
		fmt.Fprintf(w, "%-28s head: load=%d store=%d alu=%d br=%d unissued=%d\n",
			"", s.StallHeadLoad, s.StallHeadStore, s.StallHeadALU,
			s.StallHeadBranch, s.StallHeadUnissued)
	}

	run("base-rle", sim.BaselineRLE())
	run("rle+perfect", sim.RLE(sim.RLEPerfect))
	c := sim.BaselineRLE()
	c.LoadIssue = 2
	run("base-rle 2ld", c)
	c = sim.BaselineRLE()
	c.LoadLat = 4
	run("base-rle lat4", c)
}
