// Command svwctl fronts a pool of svwd backends as one horizontally
// scaled simulation service: it is an svwd whose members are the backends
// and which owns no keys itself (see internal/cluster). It serves the same
// JSON/HTTP surface as a single svwd, so clients — svwload, curl,
// dashboards — point at either interchangeably. Each cell goes to its
// rendezvous owner down svwd's own routing path: one batch per owner, and
// a failed owner's cells walk on to the next backend, the failed one
// marked down for a second.
//
// Usage:
//
//	svwctl -addr 127.0.0.1:7410 \
//	       -backends http://127.0.0.1:7411,http://127.0.0.1:7412
//	svwctl -addr 127.0.0.1:0 -backends ... # free port; printed on stdout
//
// Like svwd, svwctl prints "svwctl: listening on HOST:PORT" to stdout
// once the socket is open and drains gracefully on SIGTERM/SIGINT: the
// health endpoint flips to 503, in-flight requests get up to -drain to
// finish, then connections are closed.
//
// The backend pool is dynamic: SIGHUP re-reads -backends-file (one URL
// per line, # comments) and reconciles the pool to the union of -backends
// and the file — new members are added, absent ones drain out.
// With -debug-addr set, the same reconciliation is reachable over HTTP as
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
	"strings"
	"syscall"
	"time"

	"svwsim/internal/cluster"
	"svwsim/internal/debugserver"
	"svwsim/internal/pipeline"
	"svwsim/internal/rendezvous"
	"svwsim/internal/server"
)

// backendSet is the desired pool: the union of the -backends flag and the
// -backends-file contents (one URL per line; blank lines and # comments
// skipped), deduplicated, order preserved. Both startup and each SIGHUP
// reload compute the set the same way.
func backendSet(flagURLs, file string) ([]string, error) {
	var raw []string
	raw = append(raw, strings.Split(flagURLs, ",")...)
	if file != "" {
		data, err := os.ReadFile(file)
		if err != nil {
			return nil, fmt.Errorf("-backends-file: %v", err)
		}
		for _, line := range strings.Split(string(data), "\n") {
			if i := strings.IndexByte(line, '#'); i >= 0 {
				line = line[:i]
			}
			raw = append(raw, line)
		}
	}
	var urls []string
	seen := make(map[string]bool)
	for _, u := range raw {
		u = rendezvous.Normalize(u)
		if u == "" || seen[u] {
			continue
		}
		seen[u] = true
		urls = append(urls, u)
	}
	return urls, nil
}

func main() {
	addr := flag.String("addr", "127.0.0.1:7410", "listen address (port 0 = pick a free port)")
	backends := flag.String("backends", "", "comma-separated svwd base URLs")
	backendsFile := flag.String("backends-file", "",
		"file of svwd base URLs (one per line, # comments); re-read on SIGHUP "+
			"and reconciled with -backends, so the pool grows and shrinks "+
			"without a restart")
	headerTimeout := flag.Duration("response-header-timeout", 0,
		"per-forward wait for a backend's response headers before its cells "+
			"walk on to the next backend; svwd answers a buffered batch only "+
			"after computing it, so keep it above the longest expected batch "+
			"(the cells of one sweep one backend owns) (0 = 2m default, "+
			"negative = no bound)")
	maxBody := flag.Int64("max-body", server.DefaultMaxBodyBytes, "max request body bytes")
	maxSweep := flag.Int("max-sweep", server.DefaultMaxSweepJobs, "max jobs in one sweep matrix")
	grace := flag.Duration("grace", time.Second,
		"delay between advertising 503 on healthz and closing the listener")
	drain := flag.Duration("drain", 30*time.Second, "graceful shutdown drain window")
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
		"fabric-wide default sampled simulation: warm-up commits per detailed "+
			"window, for requests that carry no sample spec")
	sampleDetail := flag.Uint64("sample-detail", 0,
		"fabric-wide default sampled simulation: measured commits per window (0 = exact)")
	samplePeriod := flag.Uint64("sample-period", 0,
		"fabric-wide default sampled simulation: committed instructions each window represents")
	flag.Parse()

	urls, err := backendSet(*backends, *backendsFile)
	if err != nil {
		fmt.Fprintf(os.Stderr, "svwctl: %v\n", err)
		os.Exit(1)
	}
	c, err := cluster.New(cluster.Options{
		Backends:              urls,
		ResponseHeaderTimeout: *headerTimeout,
		MaxBodyBytes:          *maxBody,
		MaxSweepJobs:          *maxSweep,
		TraceBufferSize:       *traceBuf,
		SlowLogEnabled:        *slowMS >= 0,
		SlowLogThreshold:      time.Duration(*slowMS) * time.Millisecond,
		DefaultSample: pipeline.SampleSpec{
			Warmup: *sampleWarmup, Detail: *sampleDetail, Period: *samplePeriod,
		},
	})
	if err != nil {
		hint := ""
		if len(urls) == 0 {
			hint = " (use -backends url1,url2 or -backends-file)"
		}
		fmt.Fprintf(os.Stderr, "svwctl: %v%s\n", err, hint)
		os.Exit(1)
	}

	if *debugAddr != "" {
		// The membership admin endpoint shares the operator-only debug
		// listener with pprof; it must never mount on the serving port.
		dln, err := debugserver.Serve(*debugAddr,
			debugserver.Mount{Pattern: "/admin/backends", Handler: c.AdminHandler()})
		if err != nil {
			fmt.Fprintf(os.Stderr, "svwctl: -debug-addr: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("svwctl: pprof on %s\n", dln.Addr())
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	defer stop()

	// SIGHUP reload: reconcile the pool to the current -backends ∪
	// -backends-file set. Removed members drain (walks already under way
	// finish over the members they started with).
	hup := make(chan os.Signal, 1)
	signal.Notify(hup, syscall.SIGHUP)
	go func() {
		for range hup {
			want, err := backendSet(*backends, *backendsFile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "svwctl: reload: %v\n", err)
				continue
			}
			added, removed, err := c.SetBackends(want)
			if err != nil {
				fmt.Fprintf(os.Stderr, "svwctl: reload: %v\n", err)
				continue
			}
			fmt.Fprintf(os.Stderr, "svwctl: reload: +%v -%v (%d backends)\n",
				added, removed, len(c.Backends()))
		}
	}()

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "svwctl: %v\n", err)
		os.Exit(1)
	}
	// Stdout, unbuffered: scripts (ci.sh's cluster smoke stage) parse the
	// bound address to reach an svwctl started on port 0.
	fmt.Printf("svwctl: listening on %s\n", ln.Addr())

	srv := &http.Server{
		Handler:           c.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()

	select {
	case err := <-serveErr:
		fmt.Fprintf(os.Stderr, "svwctl: %v\n", err)
		os.Exit(1)
	case <-ctx.Done():
	}

	// Graceful drain, mirroring svwd: advertise 503 on healthz, keep the
	// listener open for the grace period so load balancers observe it,
	// then stop accepting and give in-flight requests the drain window.
	fmt.Fprintln(os.Stderr, "svwctl: draining")
	c.SetDraining(true)
	time.Sleep(*grace)
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		if !errors.Is(err, context.DeadlineExceeded) {
			fmt.Fprintf(os.Stderr, "svwctl: shutdown: %v\n", err)
		}
		srv.Close()
	}
	c.Close()
	fmt.Fprintln(os.Stderr, "svwctl: stopped")
}
