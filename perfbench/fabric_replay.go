package main

// Per-layer replays for fabric-serve. After the timed phase of a traced
// run, the workload's own warm sweeps and cells are replayed against the
// live fabric through each layer's public entry point: the coordinator
// over HTTP and through its handler with no network, each backend's
// handler with a recorder, a store opened as svwd opens it, and the api
// package's decode and encode helpers.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"time"

	"svwsim/internal/api"
	"svwsim/internal/pipeline"
	"svwsim/internal/rendezvous"
	"svwsim/internal/sim"
	"svwsim/internal/sim/engine"
	"svwsim/internal/store"
)

const (
	replaySweeps      = 60 // warm sweeps replayed per layer
	replayColdCells   = 24 // cold cells replayed through the pipeline
	replayStorePasses = 3  // Get passes over the population on the store replica
)

// handle runs one request through h with a recorder, under a span.
func (b *bench) handle(h http.Handler, path string, body []byte, name, layer string) (*httptest.ResponseRecorder, time.Duration) {
	s := b.spans.start(name, layer, 0, sp{})
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("POST", path, bytes.NewReader(body)))
	return rec, s.end()
}

// checkRec counts one replayed handler call, failed unless it answered 200
// with exactly want.
func (b *bench) checkRec(rec *httptest.ResponseRecorder, want []byte, what string) {
	b.tally.record(rec.Code == http.StatusOK && bytes.Equal(rec.Body.Bytes(), want), "%s: HTTP %d", what, rec.Code)
}

func (b *bench) replayFabric(f *fabric, pop *population, fr *fabricRun) error {
	cl := newClient()
	defer cl.close()
	coordH := f.coord.Handler()
	backendH := make(map[string]http.Handler, len(f.backends))
	var urls []string
	for i, srv := range f.backends {
		backendH[f.bnodes[i].url] = srv.Handler()
		urls = append(urls, f.bnodes[i].url)
	}
	replayStart := b.spans.now()
	gen := newLoadGen(b.seed, fabricClients, pop) // a stream of its own, same seed
	var sweeps []*warmSweep
	for len(sweeps) < replaySweeps {
		if o := gen.next(); o.warm != nil {
			sweeps = append(sweeps, o.warm)
		}
	}

	before, err := fetchStats(cl, f.cnode.url)
	if err != nil {
		return err
	}
	// Whole sweeps: over HTTP, and through the coordinator's handler.
	var tHTTP, tCoord, tServer []float64
	for _, w := range sweeps {
		s := b.spans.start("http.sweep", "http", 0, sp{})
		code, body, err := cl.do("POST", f.cnode.url+"/v1/sweep", w.body)
		d := s.end()
		b.checkWarm(code, body, err, w.want)
		tHTTP = append(tHTTP, float64(d))
		rec, d := b.handle(coordH, "/v1/sweep", w.body, "cluster.sweep_handler", "cluster")
		b.checkRec(rec, w.want, "replayed sweep through the coordinator handler")
		tCoord = append(tCoord, float64(d))
	}
	mid, err := fetchStats(cl, f.cnode.url)
	if err != nil {
		return err
	}
	var forwards uint64
	for i := range mid.Cluster.Backends {
		forwards += mid.Cluster.Backends[i].Requests - before.Cluster.Backends[i].Requests
	}
	b.set("cluster.forwards_per_sweep", float64(forwards)/float64(2*len(sweeps)), "count")

	// One backend's handler on whole sweeps, no network (cells owned by
	// the other backend are read from it over the peer path).
	for _, w := range sweeps {
		rec, d := b.handle(backendH[urls[0]], "/v1/sweep", w.body, "server.sweep_handler", "server")
		b.checkRec(rec, w.want, "replayed sweep through a backend handler")
		tServer = append(tServer, float64(d))
	}
	b.set("server.sweep_us", median(tServer)/1e3, "us")

	// Per cell: the owner backend's run handler vs the coordinator's run
	// handler on the same warm cell (both served from the owner's memory
	// tier after one priming call): the difference is the coordinator hop.
	var tRun, hops, tRunDecode []float64
	for _, c := range pop.configs {
		for _, bn := range pop.benches[:fabricSweepBench] {
			cfg, _ := sim.ConfigByName(c)
			key := engine.SampledFingerprint(cfg, bn, fabricInsts, pipeline.SampleSpec{})
			body, _ := json.Marshal(api.RunRequest{Config: c, Bench: bn, Insts: fabricInsts})
			want := pop.bodies[cellKey(c, bn)]
			owner := backendH[rendezvous.Owner(urls, key)]
			b.handle(owner, "/v1/run", body, "server.run_handler", "server") // priming
			rec, dS := b.handle(owner, "/v1/run", body, "server.run_handler", "server")
			b.checkRec(rec, want, "replayed run on its owner")
			rec, dC := b.handle(coordH, "/v1/run", body, "cluster.run_handler", "cluster")
			b.checkRec(rec, want, "replayed run through the coordinator")
			tRun = append(tRun, float64(dS))
			hops = append(hops, float64(dC-dS))
			s := b.spans.start("api.decode run", "api", 0, sp{})
			var rr api.RunRequest
			api.DecodeBody(httptest.NewRecorder(), httptest.NewRequest("POST", "/v1/run", bytes.NewReader(body)), 1<<20, &rr)
			tRunDecode = append(tRunDecode, float64(s.end()))
		}
	}
	b.set("server.run_us", median(tRun)/1e3, "us")
	b.set("cluster.hop_us", median(hops)/1e3, "us")

	// api: decode a sweep body; encode a 60-cell result.
	var tDec, tEnc []float64
	for _, w := range sweeps {
		var sr api.SweepRequest
		s := b.spans.start("api.decode sweep", "api", 0, sp{})
		api.DecodeBody(httptest.NewRecorder(), httptest.NewRequest("POST", "/v1/sweep", bytes.NewReader(w.body)), 1<<20, &sr)
		tDec = append(tDec, float64(s.end()))
		var results []engine.Result
		for _, cell := range splitCells(w.want) {
			var r engine.Result
			if err := json.Unmarshal(cell, &r); err != nil {
				return err
			}
			results = append(results, r)
		}
		s = b.spans.start("api.encode", "api", 0, sp{})
		api.WriteJSON(httptest.NewRecorder(), http.StatusOK, results)
		tEnc = append(tEnc, float64(s.end()))
	}
	b.set("api.decode_us", median(tDec)/1e3, "us")
	b.set("api.encode_us", median(tEnc)/1e3, "us")

	getMem, getDisk, err := b.replayStore(pop)
	if err != nil {
		return err
	}

	// Layer shares of one warm sweep's client latency. The client-side
	// HTTP round trip is the HTTP call minus the handler call; the
	// coordinator handler's time is apportioned by the per-cell split of a
	// forwarded run: coordinator hop, store read (memory/disk mix of the
	// timed phase), request decode, and the rest of the backend handler.
	tc, th := median(tHTTP), median(tCoord)
	memHits := b.metrics["store.mem_hits"].Value
	diskHits := b.metrics["store.disk_hits"].Value
	get := getMem
	if memHits+diskHits > 0 {
		get = (memHits*getMem + diskHits*getDisk) / (memHits + diskHits)
	}
	get *= 1e3 // us -> ns
	hop, run, dec := median(hops), median(tRun), median(tRunDecode)
	cell := hop + run
	part := func(x float64) float64 { return 100 * (th / tc) * max(0, x) / cell }
	b.set("share.http_pct", 100*(tc-th)/tc, "%")
	b.set("share.cluster_pct", part(hop), "%")
	b.set("share.store_pct", part(get), "%")
	b.set("share.api_pct", part(dec), "%")
	b.set("share.server_pct", part(run-get-dec), "%")
	b.note("warm sweep: client HTTP %.2fms, coordinator handler %.2fms; per cell: hop %.1fus, owner run handler %.1fus (store get %.1fus, decode %.1fus)",
		tc/1e6, th/1e6, hop/1e3, run/1e3, get/1e3, dec/1e3)

	if err := b.replayColdCells(fr); err != nil {
		return err
	}
	b.note("%s", b.spans.selfTable("timed phase (client requests)", func(s span) bool {
		return s.Name != "setup" && s.Layer != "workload" && s.Start < replayStart
	}))
	b.note("%s", b.spans.selfTable("fabric replays", func(s span) bool { return s.Start >= replayStart }))
	return nil
}

// replayStore opens a store as svwd opens it (memory tier of
// fabricMemEntries, disk tier, write-behind), puts the warm population,
// then reads it back in seeded order, timing each call by serving tier.
func (b *bench) replayStore(pop *population) (getMemUS, getDiskUS float64, err error) {
	dir := filepath.Join(b.scratch, "store-replay")
	opts := backendOptions(dir)
	st, err := store.Open(store.Options{MemoryEntries: opts.CacheEntries, Dir: dir, WriteBehind: opts.StoreWriteBehind})
	if err != nil {
		return 0, 0, err
	}
	defer st.Close()
	keys := make([]string, 0, len(pop.bodies))
	vals := map[string][]byte{}
	for _, k := range sortedKeys(pop.bodies) {
		c, bn := splitKey(k)
		cfg, _ := sim.ConfigByName(c)
		sk := engine.SampledFingerprint(cfg, bn, fabricInsts, pipeline.SampleSpec{})
		keys = append(keys, sk)
		vals[sk] = pop.bodies[k]
	}
	var puts []float64
	for _, k := range keys {
		s := b.spans.start("store.put", "store", 0, sp{})
		st.Put(k, vals[k])
		puts = append(puts, float64(s.end()))
	}
	st.Flush()
	rng := rand.New(rand.NewPCG(b.seed, 0x5707e))
	var mem, disk []float64
	for pass := 0; pass < replayStorePasses; pass++ {
		for _, i := range rng.Perm(len(keys)) {
			s := b.spans.start("store.get", "store", 0, sp{})
			v, origin := st.Get(keys[i])
			d := float64(s.end())
			ok := bytes.Equal(v, vals[keys[i]])
			b.tally.record(ok, "store replica read of %s returned the wrong bytes (origin %v)", keys[i], origin)
			switch origin {
			case store.OriginMemory:
				mem = append(mem, d)
			case store.OriginDisk:
				disk = append(disk, d)
			}
		}
	}
	b.set("store.put_us", median(puts)/1e3, "us")
	b.set("store.get_mem_us", median(mem)/1e3, "us")
	b.set("store.get_disk_us", median(disk)/1e3, "us")
	return median(mem) / 1e3, median(disk) / 1e3, nil
}

// splitKey inverts cellKey.
func splitKey(k string) (config, bench string) {
	config, bench, _ = strings.Cut(k, "|")
	return config, bench
}

// replayColdCells replays up to replayColdCells of the timed phase's cold
// cells through the pipeline on one thread, checking each against the
// fabric's response.
func (b *bench) replayColdCells(fr *fabricRun) error {
	st := &replayStats{perUnit: map[string]time.Duration{}}
	rp := &replayer{b: b, st: st}
	before := memSnap()
	for i, c := range fr.coldDone {
		if i == replayColdCells {
			break
		}
		var want engine.Result
		if err := json.Unmarshal(c.body, &want); err != nil {
			return err
		}
		cfg, _ := sim.ConfigByName(c.run.config)
		rp.unit = b.spans.newUnit()
		s := b.spans.start("replay.cell", "bench", rp.unit, sp{})
		got, err := rp.exact(engine.Job{Config: cfg, Bench: c.run.bench, Insts: c.run.insts}, s)
		s.end()
		st.cells++
		b.tally.record(err == nil && got == want.Stats, "replay of cold cell %s/%s/%d differs from the fabric's result", c.run.config, c.run.bench, c.run.insts)
	}
	md := memSince(before)
	if st.cells == 0 {
		return fmt.Errorf("replay: no cold cells")
	}
	n := float64(st.cells)
	b.set("pipeline.allocs_per_cell", float64(md.mallocs)/n, "count")
	b.set("pipeline.bytes_per_cell", float64(md.bytes)/n, "B")
	b.set("pipeline.insts_per_s", float64(st.committed)/st.run.Seconds(), "insts/s")
	b.set("pipeline.ns_per_cycle", float64(st.run.Nanoseconds())/float64(st.cycles), "ns")
	b.set("pipeline.reset_us", float64(st.reset.Microseconds())/float64(st.resets), "us")
	return nil
}
