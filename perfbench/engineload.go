package main

// The two engine workloads, paper-exact and sampled-ladder. Both run
// rounds of sweep units in a seeded order; a round is every unit once, so
// every run covers the same mixture of benchmarks and every error metric
// covers the whole Figs. 5–7 matrix. Each unit runs on a fresh 2-worker
// engine, as a user of svwexp does per invocation.

import (
	"context"
	"math/rand/v2"
	"slices"
	"time"

	"svwsim/internal/pipeline"
	"svwsim/internal/sim"
	"svwsim/internal/sim/engine"
	"svwsim/internal/store"
	"svwsim/internal/workload"
)

// engineWorkers is the engine worker count of every unit.
const engineWorkers = 2

// unit is one sweep unit of an engine workload.
type unit interface {
	name() string
	// run executes the unit on ue, recording spans when tr is non-nil, and
	// returns its outputs.
	run(ctx context.Context, ue *unitEngine, tr *unitTrace) (unitOut, error)
	// want is the unit's pinned digest.
	want() string
}

// unitOut is what a unit produced.
type unitOut struct {
	name   string
	output digest                    // the unit's results in job order, as the check hashes them
	cells  map[string]pipeline.Stats // Figs. 5–7 cells, for the error metrics
	jobs   []engine.JobResult        // every job, in completion-callback order
	budget uint64                    // instructions per job
}

// unitEngine is a fresh engine (plus, for sampled units, a memory-only
// checkpoint store) whose per-job results are collected.
type unitEngine struct {
	eng  *engine.Engine
	ckpt *store.Store // nil for exact units
	jobs []engine.JobResult
}

func newUnitEngine(sampled bool) *unitEngine {
	u := &unitEngine{eng: engine.New(engineWorkers)}
	// Progress fires once per job in job-index order from worker
	// goroutines, serialized by the engine.
	u.eng.SetProgress(func(r engine.JobResult) { u.jobs = append(u.jobs, r) })
	if sampled {
		st, err := store.Open(store.Options{MemoryEntries: 1 << 16})
		if err != nil {
			panic(err) // memory-only Open cannot fail
		}
		u.ckpt = st
	}
	return u
}

// unitTrace carries the span context of a traced unit.
type unitTrace struct {
	rec    *recorder
	unit   int
	parent sp
}

// exactUnit is one kernel's share of the svwexp -all evaluation, in one
// of two halves: the figure ladders (Figs. 5, 6 and 7, one engine run per
// figure, as svwexp runs them) or the sensitivity studies (Fig. 8 on the
// Fig. 8 subset, §3.6 SSN width and SSBF update policy). Each half runs on
// one engine, so configurations its studies share run once.
type exactUnit struct {
	bench   string
	studies bool // false = Figs. 5–7, true = Fig. 8 and §3.6
}

func (u exactUnit) name() string {
	if u.studies {
		return "studies|" + u.bench
	}
	return "figs5-7|" + u.bench
}

func (u exactUnit) want() string { return pinned.Exact[u.name()] }

func (u exactUnit) run(ctx context.Context, ue *unitEngine, tr *unitTrace) (unitOut, error) {
	out := unitOut{cells: map[string]pipeline.Stats{}, budget: exactInsts}
	var d digest
	benches := []string{u.bench}
	study := func(name string, fn func() error) error {
		var s sp
		if tr != nil {
			s = tr.rec.start("engine.run "+name, "engine", tr.unit, tr.parent)
		}
		err := fn()
		s.end()
		return err
	}
	var studies []func() error
	if !u.studies {
		for _, l := range ladders() {
			studies = append(studies, func() error {
				return study(l.Name, func() error {
					rs, err := sim.RunLaddersContext(ctx, ue.eng, []sim.Ladder{l}, benches, exactInsts)
					if err != nil {
						return err
					}
					ladderCells(rs[0], out.cells)
					return d.ladder(rs[0])
				})
			})
		}
	} else {
		if slices.Contains(workload.Fig8Subset(), u.bench) {
			studies = append(studies, func() error {
				return study("fig8", func() error {
					r, err := sim.RunFig8Context(ctx, ue.eng, benches, exactInsts)
					if err != nil {
						return err
					}
					return d.value(r)
				})
			})
		}
		studies = append(studies, func() error {
			return study("ssn-width", func() error {
				r, err := sim.RunSSNWidthContext(ctx, ue.eng, benches, []int{8, 10, 12, 16, 0}, exactInsts)
				if err != nil {
					return err
				}
				return d.value(r)
			})
		}, func() error {
			return study("ssbf-update", func() error {
				r, err := sim.RunSSBFUpdatePolicyContext(ctx, ue.eng, benches, exactInsts)
				if err != nil {
					return err
				}
				return d.value(r)
			})
		})
	}
	for _, run := range studies {
		if err := run(); err != nil {
			return out, err
		}
	}
	out.output = d
	out.jobs = ue.jobs
	return out, nil
}

// sampledUnit is one Figs. 5–7 ladder on one benchmark under sampling; the
// unit's configurations share warm-state checkpoints through the unit's
// memory-only store, so the fast-forward legs run once per unit.
type sampledUnit struct {
	ladder sim.Ladder
	bench  string
}

func (u sampledUnit) name() string { return u.ladder.Name + "|" + u.bench }
func (u sampledUnit) want() string { return pinned.Sampled[u.name()] }

func (u sampledUnit) run(ctx context.Context, ue *unitEngine, tr *unitTrace) (unitOut, error) {
	out := unitOut{cells: map[string]pipeline.Stats{}, budget: sampledInsts}
	var cs engine.CheckpointStore = engine.StoreCheckpoints(ue.ckpt)
	var s sp
	if tr != nil {
		s = tr.rec.start("engine.run "+u.ladder.Name, "engine", tr.unit, tr.parent)
		cs = tracedCheckpoints{cs, tr.rec, tr.unit, s}
	}
	ue.eng.SetCheckpointStore(cs)
	rs, err := sim.RunLaddersSampled(ctx, ue.eng, []sim.Ladder{u.ladder}, []string{u.bench}, sampledInsts, sampleSpec)
	s.end()
	if err != nil {
		return out, err
	}
	var d digest
	ladderCells(rs[0], out.cells)
	if err := d.ladder(rs[0]); err != nil {
		return out, err
	}
	out.output = d
	out.jobs = ue.jobs
	return out, nil
}

// checkUnit counts one unit as an operation, failed unless it ran
// without error and its results hash to the unit's pinned digest.
func (b *bench) checkUnit(u unit, out unitOut, err error) bool {
	got := out.output.sum()
	return b.tally.record(err == nil && got == u.want(),
		"unit %s: err=%v digest=%s want %s", u.name(), err, got, u.want())
}

// tracedCheckpoints records a store span, under the unit's engine.run
// span, around every checkpoint probe and put the engine makes.
type tracedCheckpoints struct {
	cs     engine.CheckpointStore
	rec    *recorder
	unit   int
	parent sp
}

func (t tracedCheckpoints) GetCheckpoint(key string) ([]byte, bool) {
	s := t.rec.start("store.get_checkpoint", "store", t.unit, t.parent)
	defer s.end()
	return t.cs.GetCheckpoint(key)
}

func (t tracedCheckpoints) PutCheckpoint(key string, val []byte) {
	s := t.rec.start("store.put_checkpoint", "store", t.unit, t.parent)
	defer s.end()
	t.cs.PutCheckpoint(key, val)
}

// engineRun accumulates the timed phase of an engine workload.
type engineRun struct {
	sweep, cold dist
	cells       map[string]pipeline.Stats // first result of every Figs. 5–7 cell
	firstRound  []unitOut                 // outputs of round 1, in unit order, for sim.* and replays
	jobs, insts uint64
	memo        engine.MemoStats
	sample      engine.SampleStats
	elapsed     time.Duration
	rounds      int
	// Per-unit wall times by unit name, traced and untraced separately.
	wall, wallTraced map[string][]float64
}

// runUnits runs rounds of units in a seeded order until the phase has
// lasted b.seconds and at least minRounds rounds are done; every round
// finishes.
// On traced runs odd rounds are traced and even rounds are not, so the
// tracing overhead is measured inside one process.
func (b *bench) runUnits(units []unit, sampled bool, minRounds int) *engineRun {
	rng := rand.New(rand.NewPCG(b.seed, 0x5357))
	er := &engineRun{
		sweep: dist{name: "sweep unit"}, cold: dist{name: "cold cell"},
		cells: map[string]pipeline.Stats{},
		wall:  map[string][]float64{}, wallTraced: map[string][]float64{},
	}
	ctx := context.Background()
	t0 := time.Now()
	for er.rounds < minRounds || time.Since(t0) < b.seconds {
		traced := b.spans != nil && er.rounds%2 == 1
		for _, i := range rng.Perm(len(units)) {
			u := units[i]
			ue := newUnitEngine(sampled)
			var tr *unitTrace
			var us sp
			if traced {
				id := b.spans.newUnit()
				us = b.spans.start("unit "+u.name(), "bench", id, sp{})
				tr = &unitTrace{rec: b.spans, unit: id, parent: us}
			}
			start := time.Now()
			out, err := u.run(ctx, ue, tr)
			wall := time.Since(start)
			out.name = u.name()
			var cs sp
			if tr != nil {
				cs = b.spans.start("check", "bench", tr.unit, us)
			}
			ok := b.checkUnit(u, out, err)
			cs.end()
			us.end()
			if !ok {
				continue
			}
			er.sweep.add(wall)
			if traced {
				er.wallTraced[u.name()] = append(er.wallTraced[u.name()], float64(wall))
			} else {
				er.wall[u.name()] = append(er.wall[u.name()], float64(wall))
			}
			for _, j := range out.jobs {
				if !j.Memoized {
					er.cold.add(j.Elapsed)
				}
			}
			er.jobs += uint64(len(out.jobs))
			er.insts += uint64(len(out.jobs)) * out.budget
			m := ue.eng.Memo()
			er.memo.Hits += m.Hits
			er.memo.Misses += m.Misses
			s := ue.eng.Sample()
			er.sample.FastForwards += s.FastForwards
			er.sample.FastForwardInsts += s.FastForwardInsts
			er.sample.CheckpointHits += s.CheckpointHits
			er.sample.CheckpointMisses += s.CheckpointMisses
			for k, v := range out.cells {
				if _, seen := er.cells[k]; !seen {
					er.cells[k] = v
				}
			}
			if er.rounds == 0 {
				er.firstRound = append(er.firstRound, out)
			}
		}
		er.rounds++
	}
	er.elapsed = time.Since(t0)
	return er
}

// engineSetup is one set-up of an engine workload: build the 16 programs
// (timed, as workload.build spans), make sure the process-wide program
// cache is filled, and run one untimed warm-up unit whose output is
// checked like any other.
func (b *bench) engineSetup(warm unit, sampled bool) error {
	var buildTotal time.Duration
	setup := func() error {
		unitID := b.spans.newUnit()
		root := b.spans.start("setup", "bench", unitID, sp{})
		defer root.end()
		buildTotal += buildPrograms(b, unitID, root)
		out, err := warm.run(context.Background(), newUnitEngine(sampled), nil)
		b.checkUnit(warm, out, err)
		return err
	}
	const setups = 5
	d, err := timeSetups(setups, setup, nil)
	b.set("setup_s", d.Seconds(), "s")
	b.set("workload.build_ms", ms(buildTotal)/setups, "ms")
	return err
}

// buildPrograms builds the 16 benchmark programs from scratch, each under
// a workload.build span, returns the time it took, and makes sure the
// process-wide program cache the engine reads is filled.
func buildPrograms(b *bench, unitID int, parent sp) time.Duration {
	var total time.Duration
	for _, name := range workload.Names() {
		s := b.spans.start("workload.build "+name, "workload", unitID, parent)
		t := time.Now()
		workload.BuildByName(name)
		total += time.Since(t)
		s.end()
		workload.Cached(name)
	}
	return total
}

// reportEngine sets the end-to-end metrics of an engine workload.
func (b *bench) reportEngine(er *engineRun, sweepPct, coldPct float64) error {
	secs := er.elapsed.Seconds()
	b.set("sim_insts_per_s", float64(er.insts)/secs, "insts/s")
	b.set("cells_per_s", float64(er.jobs)/secs, "cells/s")
	if err := b.summarize(&er.sweep, sweepPct, "sweep_p50_ms", "sweep_tail_ms"); err != nil {
		return err
	}
	if err := b.summarize(&er.cold, coldPct, "cold_p50_ms", "cold_tail_ms"); err != nil {
		return err
	}
	ipc, rex, err := refError(er.cells)
	if err != nil {
		return err
	}
	b.set("ipc_err_pct", ipc, "%")
	b.set("rex_err_pp", rex, "pp")
	b.note("timed phase: %d rounds, %d units, %d cells (%d executed, %d memo hits) in %.2fs",
		er.rounds, len(er.sweep.ms), er.jobs, er.memo.Misses, er.memo.Hits, secs)
	return nil
}

// Tail percentiles, fixed per workload so that runs compare like with
// like. Each is the highest ladder percentile with at least ten samples
// beyond it at the workload's minimum sample count (minRounds rounds).
const (
	exactMinRounds   = 3    // 96 units, >= 1000 executed cells
	exactSweepPct    = 0.75 // 24 beyond at 96 units
	exactColdPct     = 0.99
	sampledMinRounds = 4    // 192 units, 960 executed cells
	sampledSweepPct  = 0.9  // 19 beyond at 192 units
	sampledColdPct   = 0.95 // 48 beyond at 960 cells
)

func exactUnits() []unit {
	var us []unit
	for _, b := range workload.Names() {
		us = append(us, exactUnit{bench: b}, exactUnit{bench: b, studies: true})
	}
	return us
}

func sampledUnits() []unit {
	var us []unit
	for _, l := range ladders() {
		for _, b := range workload.Names() {
			us = append(us, sampledUnit{ladder: l, bench: b})
		}
	}
	return us
}

func runPaperExact(b *bench) error {
	units := exactUnits()
	// The heaviest unit warms up: the longest set-up is the steadiest.
	if err := b.engineSetup(exactUnit{bench: "mcf"}, false); err != nil {
		return err
	}
	return b.runEngineWorkload(units, false, exactMinRounds, exactSweepPct, exactColdPct)
}

func runSampledLadder(b *bench) error {
	units := sampledUnits()
	if err := b.engineSetup(sampledUnit{ladder: sim.Fig5Ladder(), bench: "mcf"}, true); err != nil {
		return err
	}
	return b.runEngineWorkload(units, true, sampledMinRounds, sampledSweepPct, sampledColdPct)
}

func (b *bench) runEngineWorkload(units []unit, sampled bool, minRounds int, sweepPct, coldPct float64) error {
	before := memSnap()
	er := b.runUnits(units, sampled, minRounds)
	md := memSince(before)
	if err := b.reportEngine(er, sweepPct, coldPct); err != nil {
		return err
	}
	if b.spans == nil {
		return nil
	}
	b.set("runtime.gc_cycles", float64(md.gcs), "count")
	b.set("runtime.alloc_mb", float64(md.bytes)/(1<<20), "MiB")
	b.set("engine.cells_run", float64(er.memo.Misses), "count")
	b.set("engine.memo_hits", float64(er.memo.Hits), "count")
	b.set("engine.fast_forwards", float64(er.sample.FastForwards), "count")
	b.set("engine.ckpt_hits", float64(er.sample.CheckpointHits), "count")
	b.set("engine.ckpt_misses", float64(er.sample.CheckpointMisses), "count")
	b.simTotals(er.firstRound)
	if err := b.replayEngine(er, sampled); err != nil {
		return err
	}
	return nil
}

// simTotals reports the simulated counters summed over every job one
// round executed (memo hits excluded): deterministic for a given code
// version, whatever the seed or host speed.
func (b *bench) simTotals(round []unitOut) {
	var t pipeline.Stats
	for _, u := range round {
		for _, j := range u.jobs {
			if !j.Memoized {
				s := j.Result.Stats
				t.Add(&s)
			}
		}
	}
	b.setSim(&t)
}

func (b *bench) setSim(t *pipeline.Stats) {
	b.set("sim.cycles", float64(t.Cycles), "count")
	b.set("sim.committed", float64(t.Committed), "count")
	b.set("sim.rex_loads", float64(t.RexLoads), "count")
	b.set("sim.rex_filtered", float64(t.RexFiltered), "count")
	b.set("sim.ssbf_lookups", float64(t.SSBFLookups), "count")
	b.set("sim.mispredicts", float64(t.Mispredicts), "count")
	b.set("sim.ordering_violations", float64(t.OrderingViolations), "count")
	b.set("sim.stall_rex_wait", float64(t.StallRexWait), "count")
}
