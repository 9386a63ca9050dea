package main

import (
	"context"
	"crypto/sha256"
	"embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"time"

	"svwsim/internal/api"
	"svwsim/internal/pipeline"
	"svwsim/internal/sim"
	"svwsim/internal/sim/engine"
	"svwsim/internal/workload"
)

// Per-cell instruction budgets. The pinned files record the budgets they
// were computed at; checkPins refuses to run against files pinned at
// other values, so a budget change forces a re-pin (perfbench -pin).
const (
	exactInsts   = 10_000  // paper-exact per-cell budget
	sampledInsts = 100_000 // sampled-ladder per-cell budget (10× exact)
	fabricInsts  = 5_000   // fabric-serve warm-cell budget
	refInsts     = 100_000 // exact reference the error metrics compare against
)

// sampleSpec is the README's documented spec shape: 2000 warm-up and 2000
// measured commits per 50000-instruction period.
var sampleSpec = pipeline.SampleSpec{Warmup: 2000, Detail: 2000, Period: 50000}

// refCell is one exact reference cell.
type refCell struct {
	IPC float64 `json:"ipc"`
	Rex float64 `json:"rex"`
}

// pins is the content of pinned/pins.json.
type pins struct {
	ExactInsts   uint64 `json:"exact_insts"`
	SampledInsts uint64 `json:"sampled_insts"`
	Sample       string `json:"sample"`
	FabricInsts  uint64 `json:"fabric_insts"`
	RefInsts     uint64 `json:"ref_insts"`
	// Reference holds exact IPC and re-execution rate per Figs. 5–7 cell
	// ("config|bench") at RefInsts.
	Reference map[string]refCell `json:"reference"`
	// Exact is the digest of each paper-exact unit's results
	// ("figs5-7|bench" and "studies|bench").
	Exact map[string]string `json:"exact"`
	// Sampled is the digest of each sampled-ladder unit ("ladder|bench").
	Sampled map[string]string `json:"sampled"`
	// Fabric is the SHA-256 of the direct engine encoding (api.MarshalResult)
	// of each warm fabric cell ("config|bench") at FabricInsts.
	Fabric map[string]string `json:"fabric"`
}

//go:embed pinned/pins.json
var pinnedFS embed.FS

var pinned pins

// checkPins loads the embedded pins and checks they match this build's
// budgets and cover every cell the workloads will check.
func checkPins() error {
	raw, err := pinnedFS.ReadFile("pinned/pins.json")
	if err != nil {
		return err
	}
	if err := json.Unmarshal(raw, &pinned); err != nil {
		return err
	}
	p := &pinned
	if p.ExactInsts != exactInsts || p.SampledInsts != sampledInsts || p.Sample != sampleSpec.String() ||
		p.FabricInsts != fabricInsts || p.RefInsts != refInsts {
		return fmt.Errorf("pinned at exact=%d sampled=%d sample=%s fabric=%d ref=%d; this build uses %d %d %s %d %d (re-pin with -pin)",
			p.ExactInsts, p.SampledInsts, p.Sample, p.FabricInsts, p.RefInsts,
			exactInsts, sampledInsts, sampleSpec, fabricInsts, refInsts)
	}
	benches := workload.Names()
	configs := sim.ConfigNames()
	if len(p.Reference) != len(configs)*len(benches) || len(p.Fabric) != len(configs)*len(benches) ||
		len(p.Exact) != 2*len(benches) || len(p.Sampled) != len(ladders())*len(benches) {
		return fmt.Errorf("pinned files do not cover the registry × benches matrix")
	}
	return nil
}

func cellKey(config, bench string) string { return config + "|" + bench }

// ladders are the Figs. 5–7 configuration families, whose cells are the
// ones the error metrics cover.
func ladders() []sim.Ladder {
	return []sim.Ladder{sim.Fig5Ladder(), sim.Fig6Ladder(), sim.Fig7Ladder()}
}

// digest collects a unit's results, encoded, in job order; its sum is the
// SHA-256 over all of them.
type digest struct{ h [][]byte }

// result adds one engine result in its `svwsim -json` encoding.
func (d *digest) result(r engine.Result) error {
	b, err := api.MarshalResult(r)
	if err != nil {
		return err
	}
	d.h = append(d.h, b)
	return nil
}

// value adds any JSON-encodable study result.
func (d *digest) value(v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	d.h = append(d.h, b)
	return nil
}

// ladder adds a ladder result's cells in LadderJobs order.
func (d *digest) ladder(r *sim.LadderResult) error {
	for bi := range r.Benches {
		if err := d.result(r.Base[bi]); err != nil {
			return err
		}
		for ci := range r.Runs {
			if err := d.result(r.Runs[ci][bi]); err != nil {
				return err
			}
		}
	}
	return nil
}

func (d *digest) sum() string {
	h := sha256.New()
	for _, b := range d.h {
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))
}

func bodyDigest(b []byte) string {
	s := sha256.Sum256(b)
	return hex.EncodeToString(s[:])
}

// ladderCells returns each Figs. 5–7 cell of a ladder result keyed by
// cellKey, for the error metrics.
func ladderCells(r *sim.LadderResult, into map[string]pipeline.Stats) {
	for bi, b := range r.Benches {
		into[cellKey(r.Ladder.Baseline.Name, b)] = r.Base[bi].Stats
		for ci, cfg := range r.Ladder.Configs {
			into[cellKey(cfg.Name, b)] = r.Runs[ci][bi].Stats
		}
	}
}

// refError compares cells against the pinned exact reference: the mean
// relative IPC error in percent and the mean absolute re-execution-rate
// error in percentage points. Every reference cell must be present.
func refError(cells map[string]pipeline.Stats) (ipcPct, rexPP float64, err error) {
	if len(cells) != len(pinned.Reference) {
		return 0, 0, fmt.Errorf("error metrics need all %d reference cells, have %d", len(pinned.Reference), len(cells))
	}
	for _, k := range sortedKeys(pinned.Reference) { // fixed order: identical sums every run
		ref := pinned.Reference[k]
		st, ok := cells[k]
		if !ok {
			return 0, 0, fmt.Errorf("no result for reference cell %s", k)
		}
		ipcPct += 100 * math.Abs(st.IPC()-ref.IPC) / ref.IPC
		rexPP += 100 * math.Abs(st.RexRate()-ref.Rex)
	}
	n := float64(len(pinned.Reference))
	return ipcPct / n, rexPP / n, nil
}

// referenceCells computes the exact reference for the given cells at
// refInsts on a 2-worker engine.
func referenceCells(keys [][2]string) (map[string]refCell, error) {
	var jobs []engine.Job
	for _, k := range keys {
		cfg, ok := sim.ConfigByName(k[0])
		if !ok {
			return nil, fmt.Errorf("unknown config %q", k[0])
		}
		jobs = append(jobs, engine.Job{Study: "reference", Config: cfg, Bench: k[1], Insts: refInsts})
	}
	rs, err := engine.New(2).Run(jobs, nil)
	if err != nil {
		return nil, err
	}
	out := map[string]refCell{}
	for _, r := range rs {
		out[cellKey(r.Job.Config.Name, r.Job.Bench)] = refCell{IPC: r.Result.Stats.IPC(), Rex: r.Result.Stats.RexRate()}
	}
	return out, nil
}

// fabricCellBody is the direct engine encoding of one warm fabric cell.
func fabricCellBody(config, bench string, insts uint64) ([]byte, error) {
	cfg, ok := sim.ConfigByName(config)
	if !ok {
		return nil, fmt.Errorf("unknown config %q", config)
	}
	res, err := engine.Run(cfg, bench, insts)
	if err != nil {
		return nil, err
	}
	return api.MarshalResult(res)
}

// allCells is the registry × benches matrix.
func allCells() [][2]string {
	var out [][2]string
	for _, c := range sim.ConfigNames() {
		for _, b := range workload.Names() {
			out = append(out, [2]string{c, b})
		}
	}
	return out
}

// writePins recomputes every pinned value (about a minute on 2 cores) and
// writes pinned/pins.json under dir.
func writePins(dir string) error {
	t0 := time.Now()
	p := pins{
		ExactInsts: exactInsts, SampledInsts: sampledInsts, Sample: sampleSpec.String(),
		FabricInsts: fabricInsts, RefInsts: refInsts,
		Exact: map[string]string{}, Sampled: map[string]string{}, Fabric: map[string]string{},
	}
	var err error
	if p.Reference, err = referenceCells(allCells()); err != nil {
		return fmt.Errorf("reference: %w", err)
	}
	fmt.Fprintf(os.Stderr, "pin: reference done in %v\n", time.Since(t0))
	ctx := context.Background()
	for _, b := range workload.Names() {
		for _, u := range []exactUnit{{bench: b}, {bench: b, studies: true}} {
			out, err := u.run(ctx, newUnitEngine(false), nil)
			if err != nil {
				return err
			}
			p.Exact[u.name()] = out.output.sum()
		}
		for _, l := range ladders() {
			u := sampledUnit{ladder: l, bench: b}
			out, err := u.run(ctx, newUnitEngine(true), nil)
			if err != nil {
				return err
			}
			p.Sampled[u.name()] = out.output.sum()
		}
	}
	fmt.Fprintf(os.Stderr, "pin: unit digests done in %v\n", time.Since(t0))
	for _, c := range allCells() {
		body, err := fabricCellBody(c[0], c[1], fabricInsts)
		if err != nil {
			return err
		}
		p.Fabric[cellKey(c[0], c[1])] = bodyDigest(body)
	}
	raw, err := json.MarshalIndent(p, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "pin: done in %v\n", time.Since(t0))
	return os.WriteFile(filepath.Join(dir, "pins.json"), append(raw, '\n'), 0o644)
}

// sortedKeys returns m's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
