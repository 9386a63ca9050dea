package main

// Per-layer replays for the engine workloads. After the timed phase of a
// traced run, every cell round 1 executed is replayed on one thread
// through the pipeline's and emulator's public functions — the same calls
// the engine's leaf executors make — with a span around each reset, run
// and fast-forward leg. Each replayed result must equal the engine's, so
// the replay is known to have redone exactly the engine's work.

import (
	"fmt"
	"strings"
	"time"

	"svwsim/internal/emu"
	"svwsim/internal/pipeline"
	"svwsim/internal/prog"
	"svwsim/internal/sim/engine"
	"svwsim/internal/workload"
)

// replayStats accumulates the replay's per-layer timings.
type replayStats struct {
	cells            int
	reset, run, ff   time.Duration // summed span time per layer call
	resets           int
	ffCall           time.Duration // time inside emu.FastForward alone
	ffInsts          uint64
	committed        uint64
	cycles           uint64
	perUnit          map[string]time.Duration // replay time per unit name
	mismatches       int
	allocs, allocMem uint64
}

// replayer replays cells on one reusable core, as one engine worker does.
type replayer struct {
	b    *bench
	core *pipeline.Core
	st   *replayStats
	unit int
}

func (r *replayer) reset(cfg pipeline.Config, p *prog.Program, parent sp, window *emu.ArchState) {
	s := r.b.spans.start("pipeline.reset", "pipeline", r.unit, parent)
	switch {
	case window != nil:
		r.core.ResetWindow(cfg, p, *window)
	case r.core == nil:
		r.core = pipeline.New(cfg, p)
	default:
		r.core.Reset(cfg, p)
	}
	r.st.reset += s.end()
	r.st.resets++
}

func (r *replayer) runCore(parent sp) error {
	c0 := r.core.Cycle()
	s := r.b.spans.start("pipeline.run", "pipeline", r.unit, parent)
	err := r.core.Run()
	r.st.run += s.end()
	r.st.cycles += r.core.Cycle() - c0
	r.st.committed += r.core.CommittedTotal()
	return err
}

// exact replays one exact job as engine.runOn does.
func (r *replayer) exact(j engine.Job, parent sp) (pipeline.Stats, error) {
	p := workload.Cached(j.Bench)
	cfg := j.Config
	if j.Insts > 0 {
		cfg.MaxInsts = j.Insts
		if cfg.WarmupInsts >= j.Insts/2 {
			cfg.WarmupInsts = j.Insts / 5
		}
	}
	r.reset(cfg, p, parent, nil)
	if err := r.runCore(parent); err != nil {
		return pipeline.Stats{}, err
	}
	return *r.core.Stats(), nil
}

// sampled replays one sampled job as the engine's sampled executor does,
// with legs holding the unit's fast-forwarded states by skip point (the
// checkpoint store's role): the first configuration of a unit emulates
// each leg and later ones reuse it.
func (r *replayer) sampled(j engine.Job, legs map[uint64]emu.ArchState, parent sp) (pipeline.Stats, error) {
	spec := j.Sample
	p := workload.Cached(j.Bench)
	total := j.Insts
	if total == 0 {
		total = j.Config.MaxInsts
	}
	wcfg := j.Config
	wcfg.WarmupInsts = spec.Warmup
	var (
		sum                     pipeline.Stats
		cur                     emu.ArchState
		skip, spanned, measured uint64
	)
	for skip < total {
		window := spec.Warmup + spec.Detail
		if rem := total - skip; window > rem {
			window = rem
		}
		wcfg.MaxInsts = window
		if skip == 0 {
			r.reset(wcfg, p, parent, nil)
		} else {
			if j.Config.MaxCycles > 0 {
				wcfg.MaxCycles = j.Config.MaxCycles + r.core.Cycle()
			}
			r.reset(wcfg, p, parent, &cur)
		}
		if err := r.runCore(parent); err != nil {
			return sum, err
		}
		ws := *r.core.Stats()
		measured += ws.Committed
		sum.Add(&ws)
		if committed := r.core.CommittedTotal(); committed < window {
			spanned += committed
			break
		}
		period := spec.Period
		if rem := total - skip; period > rem {
			period = rem
		}
		if skip+period >= total {
			spanned += period
			break
		}
		next := skip + period
		if st, ok := legs[next]; ok {
			cur = st
		} else {
			s := r.b.spans.start("emu.ff", "emu", r.unit, parent)
			m := emu.New(p.NewImage(), p.Entry)
			m.SetDecodeTable(p.Base, p.Decoded())
			if skip > 0 {
				m.Restore(cur)
			}
			t0 := time.Now()
			executed, err := m.FastForward(period)
			r.st.ffCall += time.Since(t0)
			r.st.ffInsts += executed
			cur = m.State()
			r.st.ff += s.end()
			if err != nil {
				return sum, err
			}
			if executed < period {
				spanned += executed
				break
			}
			legs[next] = cur
		}
		spanned += period
		skip = next
	}
	if measured > 0 {
		sum.Scale(spanned, measured)
	}
	return sum, nil
}

// replayEngine replays round 1 of an engine workload and reports the
// per-layer metrics and layer shares.
func (b *bench) replayEngine(er *engineRun, sampled bool) error {
	st := &replayStats{perUnit: map[string]time.Duration{}}
	rp := &replayer{b: b, st: st}
	before := memSnap()
	for _, u := range er.firstRound {
		name := u.name
		rp.unit = b.spans.newUnit()
		root := b.spans.start("replay "+name, "bench", rp.unit, sp{})
		legs := map[uint64]emu.ArchState{}
		var unitTime time.Duration
		for _, j := range u.jobs {
			if j.Memoized {
				continue
			}
			cs := b.spans.start("replay.cell", "bench", rp.unit, root)
			var got pipeline.Stats
			var err error
			if sampled {
				got, err = rp.sampled(j.Job, legs, cs)
			} else {
				got, err = rp.exact(j.Job, cs)
			}
			unitTime += cs.end()
			st.cells++
			b.tally.record(err == nil && got == j.Result.Stats,
				"replay of %s on %s (unit %s) differs from the engine's result (err=%v)",
				j.Job.Config.Name, j.Job.Bench, name, err)
		}
		root.end()
		st.perUnit[name] = unitTime
	}
	md := memSince(before)
	if st.cells == 0 {
		return fmt.Errorf("replay: no executed cells in round 1")
	}
	n := float64(st.cells)
	b.set("pipeline.allocs_per_cell", float64(md.mallocs)/n, "count")
	b.set("pipeline.bytes_per_cell", float64(md.bytes)/n, "B")
	b.set("pipeline.insts_per_s", float64(st.committed)/st.run.Seconds(), "insts/s")
	b.set("pipeline.ns_per_cycle", float64(st.run.Nanoseconds())/float64(st.cycles), "ns")
	b.set("pipeline.reset_us", float64(st.reset.Microseconds())/float64(st.resets), "us")
	if st.ffInsts > 0 {
		b.set("emu.ff_insts_per_s", float64(st.ffInsts)/st.ffCall.Seconds(), "insts/s")
	}
	b.set("emu.ff_share", float64(st.ff)/float64(st.ff+st.reset+st.run), "ratio")

	// Wall time of one round at full speed: the median untraced wall of
	// every unit. The replay's single-thread time over the engine's
	// worker-time for the same round is the engine's parallel efficiency.
	var wall, work time.Duration
	for name, w := range er.wall {
		wall += time.Duration(median(w))
		work += st.perUnit[name]
	}
	if wall <= 0 {
		return fmt.Errorf("replay: no untraced unit walls")
	}
	b.set("engine.parallel_eff", float64(work)/float64(engineWorkers*wall), "ratio")

	// Layer shares of one round's wall time: leaf work at full parallelism
	// from the replay, store and bench self time from the traced round,
	// the remainder (scheduling, idle workers, stragglers, memo, checkpoint
	// decode) to the engine.
	live := b.spans.selfTimes(isTimedUnit)
	var tracedWall time.Duration
	for _, w := range er.wallTraced {
		tracedWall += time.Duration(median(w))
	}
	share := func(d time.Duration, of time.Duration, workers int) float64 {
		return 100 * float64(d) / float64(workers) / float64(of)
	}
	pipe := share(st.reset+st.run, wall, engineWorkers)
	emuS := share(st.ff, wall, engineWorkers)
	storeS, benchS := 0.0, 0.0
	if tracedWall > 0 {
		rounds := float64(er.rounds / 2) // traced rounds
		storeS = share(time.Duration(float64(live["store"])/rounds), tracedWall, engineWorkers)
		benchS = share(time.Duration(float64(live["bench"])/rounds), tracedWall, 1)
	}
	b.set("share.pipeline_pct", pipe, "%")
	b.set("share.emu_pct", emuS, "%")
	b.set("share.store_pct", storeS, "%")
	b.set("share.bench_pct", benchS, "%")
	b.set("share.engine_pct", max(0, 100-pipe-emuS-storeS-benchS), "%")
	if n, d := b.spans.total("store.get_checkpoint"); n > 0 {
		b.set("store.get_mem_us", float64(d.Microseconds())/float64(n), "us")
	}
	if n, d := b.spans.total("store.put_checkpoint"); n > 0 {
		b.set("store.put_us", float64(d.Microseconds())/float64(n), "us")
	}
	if sampled {
		b.set("store.mem_hits", float64(er.sample.CheckpointHits), "count")
	}

	// Tracing overhead: traced over untraced wall of the same units.
	var ratios []float64
	for name, t := range er.wallTraced {
		if u, ok := er.wall[name]; ok {
			ratios = append(ratios, median(t)/median(u))
		}
	}
	if len(ratios) > 0 {
		b.set("trace.overhead_pct", 100*(median(ratios)-1), "%")
	}
	b.note("%s", b.spans.selfTable("timed units (traced rounds)", isTimedUnit))
	b.note("%s", b.spans.selfTable("single-thread replay of round 1", isReplay))
	b.note("replay: %d cells, %.1f ms single-thread vs %.1f ms round wall x %d workers",
		st.cells, ms(work), ms(wall), engineWorkers)
	return nil
}

// isTimedUnit selects the spans of traced timed-phase units: not set-up,
// not replays.
func isTimedUnit(s span) bool {
	return s.Name != "setup" && s.Layer != "workload" && !isReplay(s)
}

func isReplay(s span) bool {
	return strings.HasPrefix(s.Name, "replay") || s.Layer == "pipeline" || s.Layer == "emu"
}
