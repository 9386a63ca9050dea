// Command svwd serves the experiment engine over JSON/HTTP: the daemon
// behind which svwload, dashboards and remote assessment tooling queue
// simulation work instead of shelling out to one-shot CLIs. See
// internal/server for the API surface and production semantics (tiered
// result store as the only cache, 429 admission control, SSE sweep
// streaming, per-request cancellation).
//
// Usage:
//
//	svwd -addr 127.0.0.1:7411 -j 4
//	svwd -addr 127.0.0.1:0            # pick a free port; printed on stdout
//
// The daemon prints "svwd: listening on HOST:PORT" to stdout once the
// socket is open (scripts parse this to find a randomly chosen port) and
// drains gracefully on SIGTERM/SIGINT: the health endpoint flips to 503,
// in-flight requests get up to -drain to finish, then connections are
// closed.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"svwsim/internal/debugserver"
	"svwsim/internal/pipeline"
	"svwsim/internal/rendezvous"
	"svwsim/internal/server"
)

// parseClientWeights parses "name=weight,name=weight" into the fair-gate
// share map. An empty string means no weights (one global gate).
func parseClientWeights(s string) (map[string]int, error) {
	if s == "" {
		return nil, nil
	}
	weights := make(map[string]int)
	for _, pair := range strings.Split(s, ",") {
		name, val, ok := strings.Cut(strings.TrimSpace(pair), "=")
		if !ok || name == "" {
			return nil, fmt.Errorf("want name=weight, got %q", pair)
		}
		w, err := strconv.Atoi(val)
		if err != nil || w < 1 {
			return nil, fmt.Errorf("weight for %q must be a positive integer, got %q", name, val)
		}
		weights[name] = w
	}
	return weights, nil
}

func main() {
	addr := flag.String("addr", "127.0.0.1:7411", "listen address (port 0 = pick a free port)")
	workers := flag.Int("j", 0, "engine workers (0 = GOMAXPROCS)")
	maxJobs := flag.Int("max-jobs", server.DefaultMaxConcurrentJobs,
		"max concurrently admitted engine jobs before 429 (-1 = unlimited)")
	cacheEntries := flag.Int("cache", server.DefaultCacheEntries, "result store memory-tier entries")
	storeDir := flag.String("store-dir", "",
		"persistent result store directory (empty = memory only); a restarted "+
			"daemon pointed at the same directory serves previous results from disk")
	storeMaxBytes := flag.Int64("store-max-bytes", 0,
		"persistent store size cap in bytes, LRU-GCed past it (0 = 1GiB default)")
	storeWriteBehind := flag.Int("store-write-behind", 256,
		"write-behind queue entries for persistent store writes: results are "+
			"buffered and flushed in batches by a background writer, drained on "+
			"shutdown (0 = synchronous write per result)")
	peers := flag.String("peers", "",
		"comma-separated fabric member URLs, this daemon's own included (each "+
			"memo key is owned by its rendezvous winner, and a cell this daemon "+
			"misses goes to its owner, one batch per owner); empty = no static "+
			"membership")
	peerSelf := flag.String("peer-self", "",
		"this daemon's own URL within -peers (how it recognizes keys it owns); "+
			"required with -peers")
	peerLearn := flag.Bool("peer-learn", false,
		"adopt fabric membership from forwarded batches (X-Svw-Peers/"+
			"X-Svw-Peer-Self headers); headers are trusted at face value, enable "+
			"only on trusted networks")
	peerTimeout := flag.Duration("peer-read-timeout", 0,
		"per-fetch budget for checkpoint reads from peers (0 = 2s default)")
	maxBody := flag.Int64("max-body", server.DefaultMaxBodyBytes, "max request body bytes")
	maxSweep := flag.Int("max-sweep", server.DefaultMaxSweepJobs, "max jobs in one sweep matrix")
	timeout := flag.Duration("timeout", 0, "per-job wall-clock limit (0 = none)")
	grace := flag.Duration("grace", time.Second,
		"delay between advertising 503 on healthz and closing the listener")
	drain := flag.Duration("drain", 30*time.Second, "graceful shutdown drain window")
	clientWeights := flag.String("client-weights", "",
		"weighted fair admission shares as name=weight pairs, comma-separated "+
			"(e.g. bulk=1,interactive=4); clients name themselves via the "+
			"X-Svw-Client header (empty = one global gate)")
	defaultWeight := flag.Int("client-weight-default", 1,
		"share weight for clients not named in -client-weights")
	slowMS := flag.Int64("slow-ms", -1,
		"log traced requests slower than this many milliseconds as one JSON "+
			"line with the full span tree (0 = log every traced request, "+
			"negative = off)")
	traceBuf := flag.Int("trace-buf", 0,
		"completed request traces kept for GET /debug/traces (0 = 256)")
	debugAddr := flag.String("debug-addr", "",
		"serve net/http/pprof on this separate address (e.g. 127.0.0.1:6060); "+
			"empty = off; never exposed on the serving port")
	sampleWarmup := flag.Uint64("sample-warmup", 0,
		"default sampled simulation: warm-up commits per detailed window, applied "+
			"to requests that carry no sample spec of their own")
	sampleDetail := flag.Uint64("sample-detail", 0,
		"default sampled simulation: measured commits per window (0 = exact)")
	samplePeriod := flag.Uint64("sample-period", 0,
		"default sampled simulation: committed instructions each window represents")
	flag.Parse()

	weights, err := parseClientWeights(*clientWeights)
	if err != nil {
		fmt.Fprintf(os.Stderr, "svwd: -client-weights: %v\n", err)
		os.Exit(2)
	}
	members, err := parsePeers(*peers, *peerSelf)
	if err != nil {
		fmt.Fprintf(os.Stderr, "svwd: %v\n", err)
		os.Exit(2)
	}

	s, err := server.New(server.Options{
		Workers:             *workers,
		MaxConcurrentJobs:   *maxJobs,
		CacheEntries:        *cacheEntries,
		StoreDir:            *storeDir,
		StoreMaxBytes:       *storeMaxBytes,
		StoreWriteBehind:    *storeWriteBehind,
		Peers:               members,
		PeerSelf:            *peerSelf,
		PeerLearn:           *peerLearn,
		PeerReadTimeout:     *peerTimeout,
		MaxBodyBytes:        *maxBody,
		MaxSweepJobs:        *maxSweep,
		JobTimeout:          *timeout,
		ClientWeights:       weights,
		DefaultClientWeight: *defaultWeight,
		TraceBufferSize:     *traceBuf,
		SlowLogEnabled:      *slowMS >= 0,
		SlowLogThreshold:    time.Duration(*slowMS) * time.Millisecond,
		DefaultSample: pipeline.SampleSpec{
			Warmup: *sampleWarmup, Detail: *sampleDetail, Period: *samplePeriod,
		},
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "svwd: %v\n", err)
		os.Exit(1)
	}

	if *debugAddr != "" {
		dln, err := debugserver.Serve(*debugAddr)
		if err != nil {
			fmt.Fprintf(os.Stderr, "svwd: -debug-addr: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("svwd: pprof on %s\n", dln.Addr())
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "svwd: %v\n", err)
		os.Exit(1)
	}
	// Stdout, unbuffered: scripts (ci.sh's smoke stage) parse the bound
	// address to reach a daemon started on port 0.
	fmt.Printf("svwd: listening on %s\n", ln.Addr())

	srv := &http.Server{
		Handler:           s.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	defer stop()

	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()

	select {
	case err := <-serveErr:
		fmt.Fprintf(os.Stderr, "svwd: %v\n", err)
		os.Exit(1)
	case <-ctx.Done():
	}

	// Graceful drain: advertise 503 on healthz and keep the listener open
	// for the grace period so load balancers actually observe it, then stop
	// accepting and give in-flight requests the drain window.
	fmt.Fprintln(os.Stderr, "svwd: draining")
	s.SetDraining(true)
	time.Sleep(*grace)
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		if !errors.Is(err, context.DeadlineExceeded) {
			fmt.Fprintf(os.Stderr, "svwd: shutdown: %v\n", err)
		}
		srv.Close()
	}
	// Drain the store's write-behind queue after the HTTP server stops:
	// every result completed before shutdown lands on disk, so a restart
	// over the same -store-dir is as warm as the daemon was.
	if err := s.Close(); err != nil {
		fmt.Fprintf(os.Stderr, "svwd: closing store: %v\n", err)
	}
	fmt.Fprintln(os.Stderr, "svwd: stopped")
}

// parsePeers parses -peers and -peer-self. A member list needs this
// daemon's own URL in it: without one svwd would own no keys and route
// every cell elsewhere, computing nothing.
func parsePeers(peers, self string) ([]string, error) {
	if strings.TrimSpace(peers) == "" {
		return nil, nil
	}
	members := strings.Split(peers, ",")
	for _, m := range members {
		if self != "" && rendezvous.Normalize(m) == rendezvous.Normalize(self) {
			return members, nil
		}
	}
	return nil, fmt.Errorf("-peers needs -peer-self naming this daemon's own URL among them (got %q)", self)
}
