package main

// The fabric-serve workload: a closed loop of 2 clients against an
// in-process svwctl coordinator fronting 2 svwd backends over loopback
// HTTP. Each backend has 1 engine worker, its own disk store directory,
// write-behind and peer learning, and a memory tier smaller than its share
// of the warm key population, so warm reads keep falling to disk. The
// timed phase mixes warm 60-cell registry sweeps with cold single-cell
// runs at fresh budgets.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"os"
	"sync"
	"time"

	"svwsim/internal/api"
	"svwsim/internal/cluster"
	"svwsim/internal/pipeline"
	"svwsim/internal/server"
	"svwsim/internal/sim"
	"svwsim/internal/sim/engine"
	"svwsim/internal/workload"
)

const (
	fabricBackends   = 2
	fabricClients    = 2
	fabricMemEntries = 48 // per-backend memory tier; each backend owns ~120 warm keys
	fabricSweepBench = 4  // benches per warm sweep (× 15 registry configs = 60 cells)
	// coldShare is the share of client operations that are cold runs. It
	// is kept low enough that the two clients' cold runs seldom queue
	// behind each other on a backend's single engine worker: the cold tail
	// then measures a run, not the collision rate.
	coldShare       = 0.06
	coldBase        = 8_000
	coldSpan        = 2_000 // cold budgets are drawn from [coldBase, coldBase+2*coldSpan)
	fabricSweepPct  = 0.99
	fabricColdPct   = 0.9
	fabricMinSweeps = 1000 // p99 keeps >= 10 samples beyond it
	fabricMinCold   = 100  // p90 keeps >= 10 samples beyond it
)

// httpNode is one in-process HTTP listener.
type httpNode struct {
	hs   *http.Server
	url  string
	done chan struct{}
}

func serve(h http.Handler) (*httpNode, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	n := &httpNode{
		hs:   &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second},
		url:  "http://" + ln.Addr().String(),
		done: make(chan struct{}),
	}
	go func() {
		defer close(n.done)
		n.hs.Serve(ln) // returns http.ErrServerClosed on shutdown
	}()
	return n, nil
}

// stop shuts the listener down and waits for its serve loop to exit.
func (n *httpNode) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := n.hs.Shutdown(ctx); err != nil {
		n.hs.Close()
	}
	<-n.done
}

// fabric is a coordinator over svwd backends, all in this process.
type fabric struct {
	backends []*server.Server
	bnodes   []*httpNode
	coord    *cluster.Coordinator
	cnode    *httpNode
	dirs     []string
}

func startFabric(scratch string) (*fabric, error) {
	f := &fabric{}
	var urls []string
	for i := 0; i < fabricBackends; i++ {
		dir, err := os.MkdirTemp(scratch, "store-")
		if err != nil {
			f.stop()
			return nil, err
		}
		f.dirs = append(f.dirs, dir)
		srv, err := server.New(backendOptions(dir))
		if err != nil {
			f.stop()
			return nil, err
		}
		n, err := serve(srv.Handler())
		if err != nil {
			f.stop()
			return nil, err
		}
		f.backends = append(f.backends, srv)
		f.bnodes = append(f.bnodes, n)
		urls = append(urls, n.url)
	}
	c, err := cluster.New(cluster.Options{Backends: urls})
	if err != nil {
		f.stop()
		return nil, err
	}
	f.coord = c
	if f.cnode, err = serve(c.Handler()); err != nil {
		f.stop()
		return nil, err
	}
	return f, nil
}

// backendOptions opens a backend as `svwd -j 1 -cache 48 -store-dir dir
// -store-write-behind 256 -peer-learn` does.
func backendOptions(dir string) server.Options {
	return server.Options{
		Workers:          1,
		CacheEntries:     fabricMemEntries,
		StoreDir:         dir,
		StoreWriteBehind: 256,
		PeerLearn:        true,
	}
}

func (f *fabric) stop() {
	if f.cnode != nil {
		f.cnode.stop()
	}
	for _, n := range f.bnodes {
		n.stop()
	}
	for _, s := range f.backends {
		s.Close()
	}
	for _, d := range f.dirs {
		os.RemoveAll(d)
	}
}

// client is one closed-loop client with its own single connection.
type client struct {
	hc *http.Client
}

func newClient() *client {
	return &client{hc: &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true,
	}}}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// do sends one request and returns the status and body.
func (c *client) do(method, url string, body []byte) (int, []byte, error) {
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// warmSweep is one generated warm sweep request and its expected body.
type warmSweep struct {
	body, want []byte
}

// coldRun is one generated cold single-cell run.
type coldRun struct {
	config, bench string
	insts         uint64
	body          []byte
}

// op is one client operation: a warm sweep or a cold run.
type op struct {
	warm *warmSweep
	cold *coldRun
}

// population is the warm key population: every registry config × bench
// cell at fabricInsts, with its verified direct-engine encoding.
type population struct {
	configs, benches []string
	bodies           map[string][]byte // cellKey -> body
}

// sweepRequest builds a sweep body over the registry and the given benches.
func sweepRequest(configs, benches []string, insts uint64) []byte {
	b, err := json.Marshal(api.SweepRequest{Configs: configs, Benches: benches, Insts: insts})
	if err != nil {
		panic(err) // a struct of strings and ints always encodes
	}
	return b
}

func (p *population) sweep(benches []string) *warmSweep {
	w := &warmSweep{body: sweepRequest(p.configs, benches, fabricInsts)}
	for _, c := range p.configs {
		for _, b := range benches {
			w.want = append(w.want, p.bodies[cellKey(c, b)]...)
		}
	}
	return w
}

// splitCells splits a buffered sweep body into its per-cell encodings:
// each api.MarshalResult object ends with a closing brace at column 0.
func splitCells(body []byte) [][]byte {
	var out [][]byte
	for len(body) > 0 {
		i := bytes.Index(body, []byte("\n}\n"))
		if i < 0 {
			return append(out, body)
		}
		out = append(out, body[:i+3])
		body = body[i+3:]
	}
	return out
}

// prefill sends every warm cell through the coordinator, 4 benches per
// sweep, and checks each cell against its pinned direct-engine digest.
func (b *bench) prefill(f *fabric, cl *client) (*population, error) {
	p := &population{configs: sim.ConfigNames(), benches: workload.Names(), bodies: map[string][]byte{}}
	for i := 0; i < len(p.benches); i += fabricSweepBench {
		group := p.benches[i:min(i+fabricSweepBench, len(p.benches))]
		code, body, err := cl.do("POST", f.cnode.url+"/v1/sweep", sweepRequest(p.configs, group, fabricInsts))
		cells := splitCells(body)
		ok := err == nil && code == http.StatusOK && len(cells) == len(p.configs)*len(group)
		if ok {
			k := 0
			for _, c := range p.configs {
				for _, bn := range group {
					key := cellKey(c, bn)
					ok = ok && bodyDigest(cells[k]) == pinned.Fabric[key]
					p.bodies[key] = cells[k]
					k++
				}
			}
		}
		if !b.tally.record(ok, "prefill sweep %v: HTTP %d err=%v cells=%d", group, code, err, len(cells)) {
			return nil, fmt.Errorf("prefill failed")
		}
	}
	return p, nil
}

// drainWriteBehind waits until every backend's write-behind queue is
// empty, so the timed phase starts with the whole population on disk.
func drainWriteBehind(f *fabric, cl *client) error {
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		depth := 0
		for _, n := range f.bnodes {
			st, err := fetchStats(cl, n.url)
			if err != nil {
				return err
			}
			depth += st.Cache.WritebehindDepth
		}
		if depth == 0 {
			return nil
		}
		time.Sleep(10 * time.Millisecond)
	}
	return errors.New("write-behind did not drain")
}

func fetchStats(cl *client, url string) (api.StatsResponse, error) {
	var st api.StatsResponse
	code, body, err := cl.do("GET", url+"/v1/stats", nil)
	if err != nil {
		return st, err
	}
	if code != http.StatusOK {
		return st, fmt.Errorf("stats HTTP %d", code)
	}
	return st, json.Unmarshal(body, &st)
}

// loadGen generates one client's operations from the workload seed.
type loadGen struct {
	rng    *rand.Rand
	pop    *population
	client int
	used   map[uint64]bool
	deck   []int // benches not yet dealt to a cold run in this pass
}

func newLoadGen(seed uint64, client int, pop *population) *loadGen {
	return &loadGen{rng: rand.New(rand.NewPCG(seed, 0xFAB0+uint64(client))), pop: pop, client: client, used: map[uint64]bool{}}
}

func (g *loadGen) next() op {
	if g.rng.Float64() < coldShare {
		// Cold benches are dealt from a shuffled deck, every bench once
		// per pass, so each run's cold mix covers the kernels evenly
		// whatever the seed: cell cost depends mostly on the kernel.
		if len(g.deck) == 0 {
			g.deck = g.rng.Perm(len(g.pop.benches))
		}
		bn := g.pop.benches[g.deck[0]]
		g.deck = g.deck[1:]
		cfg := g.pop.configs[g.rng.IntN(len(g.pop.configs))]
		// Fresh budgets: never used before in this process, and disjoint
		// between the clients (by parity), so every cold run computes.
		var insts uint64
		for insts == 0 || g.used[insts] {
			insts = coldBase + 2*uint64(g.rng.IntN(coldSpan)) + uint64(g.client)
		}
		g.used[insts] = true
		body, err := json.Marshal(api.RunRequest{Config: cfg, Bench: bn, Insts: insts})
		if err != nil {
			panic(err)
		}
		return op{cold: &coldRun{config: cfg, bench: bn, insts: insts, body: body}}
	}
	perm := g.rng.Perm(len(g.pop.benches))[:fabricSweepBench]
	benches := make([]string, len(perm))
	for i, j := range perm {
		benches[i] = g.pop.benches[j]
	}
	return op{warm: g.pop.sweep(benches)}
}

// fabricRun accumulates the timed phase.
type fabricRun struct {
	mu           sync.Mutex
	warm, cold   dist
	warmT, warmU []float64 // traced / untraced warm latencies (traced runs)
	warmCells    uint64
	coldDone     []coldResult
	elapsed      time.Duration
}

type coldResult struct {
	run  *coldRun
	body []byte
}

// runFabricServe is the workload entry point.
func runFabricServe(b *bench) error {
	var f *fabric
	var pop *population
	setupCl := newClient()
	defer setupCl.close()
	var warmUpCold []coldResult
	var buildTotal time.Duration
	setup := func() error {
		unitID := b.spans.newUnit()
		root := b.spans.start("setup", "bench", unitID, sp{})
		defer root.end()
		buildTotal += buildPrograms(b, unitID, root)
		var err error
		if f, err = startFabric(b.scratch); err != nil {
			return err
		}
		if pop, err = b.prefill(f, setupCl); err != nil {
			return err
		}
		if err := drainWriteBehind(f, setupCl); err != nil {
			return err
		}
		// Warm-up: one warm sweep and one cold run outside the seeded
		// budget range, checked like the timed operations.
		w := pop.sweep(pop.benches[:fabricSweepBench])
		code, body, err := setupCl.do("POST", f.cnode.url+"/v1/sweep", w.body)
		b.tally.record(err == nil && code == http.StatusOK && bytes.Equal(body, w.want), "warm-up sweep: HTTP %d err=%v", code, err)
		cr := &coldRun{config: "ssq+svw", bench: "gcc", insts: coldBase - 1 - uint64(len(warmUpCold))}
		cr.body, _ = json.Marshal(api.RunRequest{Config: cr.config, Bench: cr.bench, Insts: cr.insts})
		code, body, err = setupCl.do("POST", f.cnode.url+"/v1/run", cr.body)
		if err == nil && code == http.StatusOK {
			warmUpCold = append(warmUpCold, coldResult{run: cr, body: body}) // checked after the timed phase
		} else {
			b.tally.record(false, "warm-up run: HTTP %d err=%v", code, err)
		}
		return nil
	}
	// Set-up builds the programs, boots the fabric and prefills it; it is
	// timed three times (fresh store dirs each time) and the median kept.
	d, err := timeSetups(3, setup, func() { f.stop() })
	if f != nil {
		defer f.stop()
	}
	if err != nil {
		return err
	}
	b.set("setup_s", d.Seconds(), "s")
	b.set("workload.build_ms", ms(buildTotal)/3, "ms")

	before, err := fetchStats(setupCl, f.cnode.url)
	if err != nil {
		return err
	}
	ms0 := memSnap()
	fr := b.fabricPhase(f, pop)
	md := memSince(ms0)
	after, err := fetchStats(setupCl, f.cnode.url)
	if err != nil {
		return err
	}
	b.verifyCold(append(warmUpCold, fr.coldDone...))

	secs := fr.elapsed.Seconds()
	var coldInsts uint64
	for _, c := range fr.coldDone {
		coldInsts += c.run.insts
	}
	cells := fr.warmCells + uint64(len(fr.coldDone))
	b.set("sim_insts_per_s", float64(fr.warmCells*fabricInsts+coldInsts)/secs, "insts/s")
	b.set("cells_per_s", float64(cells)/secs, "cells/s")
	if err := b.summarize(&fr.warm, fabricSweepPct, "sweep_p50_ms", "sweep_tail_ms"); err != nil {
		return err
	}
	if err := b.summarize(&fr.cold, fabricColdPct, "cold_p50_ms", "cold_tail_ms"); err != nil {
		return err
	}
	// Keyed by the configuration's own name, as the reference is.
	popStats := map[string]pipeline.Stats{}
	for _, body := range pop.bodies {
		var r engine.Result
		if err := json.Unmarshal(body, &r); err != nil {
			return err
		}
		popStats[cellKey(r.Config, r.Bench)] = r.Stats
	}
	ipc, rex, err := refError(popStats)
	if err != nil {
		return err
	}
	b.set("ipc_err_pct", ipc, "%")
	b.set("rex_err_pp", rex, "pp")
	b.note("timed phase: %d warm sweeps (%d cells), %d cold runs in %.2fs", len(fr.warm.ms), fr.warmCells, len(fr.coldDone), secs)
	dc := after.Cache
	bc := before.Cache
	b.note("store tiers over the timed phase: memory=%d disk=%d peer=%d miss=%d coalesced=%d",
		dc.Hits-bc.Hits, dc.DiskHits-bc.DiskHits, dc.PeerHits-bc.PeerHits, dc.Misses-bc.Misses, dc.Coalesced-bc.Coalesced)
	if b.spans == nil {
		return nil
	}
	b.set("runtime.gc_cycles", float64(md.gcs), "count")
	b.set("runtime.alloc_mb", float64(md.bytes)/(1<<20), "MiB")
	b.set("store.mem_hits", float64(dc.Hits-bc.Hits), "count")
	b.set("store.disk_hits", float64(dc.DiskHits-bc.DiskHits), "count")
	b.set("store.peer_hits", float64(dc.PeerHits-bc.PeerHits), "count")
	b.set("store.misses", float64(dc.Misses-bc.Misses), "count")
	b.set("store.coalesced", float64(dc.Coalesced-bc.Coalesced), "count")
	b.set("store.writebehind_drops", float64(dc.WritebehindDrops-bc.WritebehindDrops), "count")
	b.set("engine.cells_run", float64(after.Engine.MemoMisses-before.Engine.MemoMisses), "count")
	b.set("engine.memo_hits", float64(after.Engine.MemoHits-before.Engine.MemoHits), "count")
	b.set("cluster.retries", float64(after.Cluster.Retries-before.Cluster.Retries), "count")
	b.set("cluster.hedges", float64(after.Cluster.Hedges-before.Cluster.Hedges), "count")
	b.set("cluster.job_errors", float64(after.Cluster.JobErrors-before.Cluster.JobErrors), "count")
	var sum pipeline.Stats
	for _, k := range sortedKeys(popStats) {
		s := popStats[k]
		sum.Add(&s)
	}
	b.setSim(&sum)
	if len(fr.warmT) > 0 && len(fr.warmU) > 0 {
		b.set("trace.overhead_pct", 100*(median(fr.warmT)/median(fr.warmU)-1), "%")
	}
	return b.replayFabric(f, pop, fr)
}

// fabricPhase runs the closed loop: fabricClients clients, each sending
// its next generated operation only after the previous reply, until the
// phase has lasted b.seconds and holds enough samples for its tails, or
// has lasted three times that and at least a minute (summarize then
// reports the shortfall).
func (b *bench) fabricPhase(f *fabric, pop *population) *fabricRun {
	fr := &fabricRun{warm: dist{name: "warm sweep"}, cold: dist{name: "cold run"}}
	t0 := time.Now()
	limit := max(3*b.seconds, time.Minute)
	enough := func() bool {
		fr.mu.Lock()
		defer fr.mu.Unlock()
		d := time.Since(t0)
		return d >= limit ||
			d >= b.seconds && len(fr.warm.ms) >= fabricMinSweeps && len(fr.cold.ms) >= fabricMinCold
	}
	var wg sync.WaitGroup
	for c := 0; c < fabricClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl := newClient()
			defer cl.close()
			gen := newLoadGen(b.seed, c, pop)
			for i := 0; !enough(); i++ {
				o := gen.next()
				traced := b.spans != nil && i%2 == 1
				var s sp
				if traced {
					name := "http.sweep"
					if o.cold != nil {
						name = "http.run"
					}
					s = b.spans.start(name, "http", b.spans.newUnit(), sp{})
				}
				start := time.Now()
				var code int
				var body []byte
				var err error
				if o.warm != nil {
					code, body, err = cl.do("POST", f.cnode.url+"/v1/sweep", o.warm.body)
				} else {
					code, body, err = cl.do("POST", f.cnode.url+"/v1/run", o.cold.body)
				}
				wall := time.Since(start)
				s.end()
				fr.mu.Lock()
				if o.warm != nil {
					if b.checkWarm(code, body, err, o.warm.want) {
						fr.warm.add(wall)
						fr.warmCells += uint64(len(pop.configs) * fabricSweepBench)
						if b.spans != nil {
							if traced {
								fr.warmT = append(fr.warmT, float64(wall))
							} else {
								fr.warmU = append(fr.warmU, float64(wall))
							}
						}
					}
				} else if err == nil && code == http.StatusOK {
					// Checked against the direct engine after the phase.
					fr.cold.add(wall)
					fr.coldDone = append(fr.coldDone, coldResult{run: o.cold, body: body})
				} else {
					b.tally.record(false, "cold run %s/%s/%d: HTTP %d err=%v", o.cold.config, o.cold.bench, o.cold.insts, code, err)
				}
				fr.mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	fr.elapsed = time.Since(t0)
	return fr
}

// checkWarm counts one warm sweep, failed unless it answered 200 with a
// body byte-equal to the concatenated direct-engine encodings of its cells.
func (b *bench) checkWarm(code int, body []byte, err error, want []byte) bool {
	return b.tally.record(err == nil && code == http.StatusOK && bytes.Equal(body, want),
		"warm sweep: HTTP %d err=%v (%d bytes, want %d)", code, err, len(body), len(want))
}

// verifyCold recomputes every cold cell on a direct 2-worker engine and
// requires the fabric's response to be byte-equal to its encoding.
func (b *bench) verifyCold(done []coldResult) {
	if len(done) == 0 {
		return
	}
	jobs := make([]engine.Job, len(done))
	for i, c := range done {
		cfg, _ := sim.ConfigByName(c.run.config)
		jobs[i] = engine.Job{Study: "verify", Config: cfg, Bench: c.run.bench, Insts: c.run.insts}
	}
	rs, _ := engine.New(engineWorkers).Run(jobs, nil)
	for i, r := range rs {
		want, err := api.MarshalResult(r.Result)
		b.tally.record(r.Err == nil && err == nil && bytes.Equal(done[i].body, want),
			"cold run %s/%s/%d differs from the direct engine encoding", done[i].run.config, done[i].run.bench, done[i].run.insts)
	}
}
