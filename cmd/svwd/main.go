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
//	svwd -addr 127.0.0.1:7411 -peers http://h1:7411,http://h2:7411 \
//	     -peer-self http://h1:7411     # a fabric member
//	svwd -addr 127.0.0.1:7410 -peers http://h1:7411,http://h2:7411
//	                                   # the coordinator: owns no keys
//
// A daemon given -peers without -peer-self is the fabric's coordinator:
// it owns no keys, sends each cell to its rendezvous owner, and answers
// /v1/stats and /v1/healthz for the members (internal/server).
//
// The daemon prints "svwd: listening on HOST:PORT" to stdout once the
// socket is open (scripts parse this to find a randomly chosen port) and
// drains gracefully on SIGTERM/SIGINT: the health endpoint flips to 503,
// in-flight requests get up to -drain to finish, then connections are
// closed.
//
// The membership is dynamic: with -peers-file set, SIGHUP re-reads it
// (one URL per line, # comments) and reconciles the members to the union
// of -peers and the file; a reload that drops -peer-self is refused. With
// -debug-addr set, the same reconciliation is reachable over HTTP as
// GET/POST /admin/backends on the debug listener (never the serving
// port).
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
	"slices"
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
		"comma-separated fabric member URLs (each memo key is owned by its "+
			"rendezvous winner, and a cell this daemon misses goes to its owner, "+
			"one batch per owner); empty = no static membership")
	peersFile := flag.String("peers-file", "",
		"file of member URLs (one per line, # comments), joined with -peers; "+
			"re-read on SIGHUP, so the membership grows and shrinks without a restart")
	peerSelf := flag.String("peer-self", "",
		"this daemon's own URL among the members (how it recognizes keys it "+
			"owns); empty with members set = the coordinator, which owns no keys")
	peerLearn := flag.Bool("peer-learn", false,
		"adopt fabric membership from forwarded batches (X-Svw-Peers/"+
			"X-Svw-Peer-Self headers); headers are trusted at face value, enable "+
			"only on trusted networks")
	forwardTimeout := flag.Duration("forward-header-timeout", 0,
		"per-forward wait for a member's response headers before its cells "+
			"walk on to the next member; a member answers a batch only after "+
			"computing it, so keep it above the longest expected batch "+
			"(0 = 2m default, negative = no bound)")
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
	members, err := parsePeers(*peers, *peersFile)
	if err != nil {
		fmt.Fprintf(os.Stderr, "svwd: %v\n", err)
		os.Exit(2)
	}

	s, err := server.New(server.Options{
		Workers:              *workers,
		MaxConcurrentJobs:    *maxJobs,
		CacheEntries:         *cacheEntries,
		StoreDir:             *storeDir,
		StoreMaxBytes:        *storeMaxBytes,
		StoreWriteBehind:     *storeWriteBehind,
		Peers:                members,
		PeerSelf:             *peerSelf,
		PeerLearn:            *peerLearn,
		ForwardHeaderTimeout: *forwardTimeout,
		MaxBodyBytes:         *maxBody,
		MaxSweepJobs:         *maxSweep,
		JobTimeout:           *timeout,
		ClientWeights:        weights,
		DefaultClientWeight:  *defaultWeight,
		TraceBufferSize:      *traceBuf,
		SlowLogEnabled:       *slowMS >= 0,
		SlowLogThreshold:     time.Duration(*slowMS) * time.Millisecond,
		DefaultSample: pipeline.SampleSpec{
			Warmup: *sampleWarmup, Detail: *sampleDetail, Period: *samplePeriod,
		},
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "svwd: %v\n", err)
		os.Exit(1)
	}

	if *debugAddr != "" {
		// The membership admin endpoint shares the operator-only debug
		// listener with pprof; it must never mount on the serving port.
		dln, err := debugserver.Serve(*debugAddr,
			debugserver.Mount{Pattern: "/admin/backends", Handler: s.AdminHandler()})
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
	if *peersFile != "" {
		hup := make(chan os.Signal, 1)
		signal.Notify(hup, syscall.SIGHUP)
		go func() {
			for range hup {
				urls, err := parsePeers(*peers, *peersFile)
				var added, removed []string
				if err == nil {
					added, removed, err = s.SetPeers(urls)
				}
				if err != nil {
					fmt.Fprintf(os.Stderr, "svwd: reload: %v\n", err)
					continue
				}
				fmt.Fprintf(os.Stderr, "svwd: reload: +%v -%v\n", added, removed)
			}
		}()
	}

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

// parsePeers reads the membership: the union of -peers and the
// -peers-file contents (one URL per line; blank lines and # comments
// skipped), each URL normalized the way placement hashes it, repeats
// dropped, order kept. Startup and each SIGHUP reload read it alike;
// server.New and SetPeers refuse a set without -peer-self in it.
func parsePeers(peers, file string) ([]string, error) {
	raw := strings.Split(peers, ",")
	if file != "" {
		data, err := os.ReadFile(file)
		if err != nil {
			return nil, fmt.Errorf("-peers-file: %v", err)
		}
		for _, line := range strings.Split(string(data), "\n") {
			line, _, _ = strings.Cut(line, "#")
			raw = append(raw, line)
		}
	}
	var urls []string
	for _, u := range raw {
		if u = rendezvous.Normalize(u); u != "" && !slices.Contains(urls, u) {
			urls = append(urls, u)
		}
	}
	return urls, nil
}
