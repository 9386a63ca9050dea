#!/bin/sh
# ci.sh — the repository's test gate. Mirrors what a hosted CI job runs:
# static checks, a full build, the race-enabled test suite (covering the
# ring-buffer timing core and the fabric coordinator's concurrency/fault
# tests), the perfbench module's vet and self-tests, a fuzz smoke over the
# differential and builder fuzzers, one-shot engine, store,
# sweep-planning and warm fabric sweep benchmarks so regressions surface
# early, the measured-performance gate against BENCH_pipeline.json, an svwexp
# dedupe stage (-j 1 and -j 4 byte-identical with pinned memo counts), an svwd
# smoke stage that boots the daemon and byte-compares its responses
# against the svwsim and svwexp CLIs, a sampled-simulation smoke stage
# (determinism, key disjointness, checkpoint reuse, a sampled ladder at
# -j 1 and -j 4), and a cluster smoke
# stage that does the same run/sweep comparison through a coordinator svwd
# (-peers without -peer-self) fronting two svwd children.
#
#   ./ci.sh            run the full gate
#   ./ci.sh benchjson  re-capture the 'current' block of BENCH_pipeline.json
#                      (cmd/benchgate -capture) and exit
set -eux

# benchjson mode: refresh the recorded performance trajectory.
if [ "${1:-}" = "benchjson" ]; then
    go run ./cmd/benchgate -capture
    exit 0
fi

# Formatting gate: gofmt must have nothing to rewrite.
fmt=$(gofmt -l .)
if [ -n "$fmt" ]; then
    echo "gofmt needs to run on:" "$fmt" >&2
    exit 1
fi

go vet ./...
go build ./...
go test -race ./...
# perfbench is its own module (perfbench/go.mod), so the builds above never
# compile it: vet and self-test it here so an API change that breaks the
# benchmark fails the gate.
(cd perfbench && go vet ./... && go test ./...)
go test -bench=Engine -benchtime=1x -run='^$' ./internal/sim/engine
go test -bench=Store -benchtime=1x -run='^$' ./internal/store
go test -bench=Plan -benchtime=1x -run='^$' ./internal/api
go test -bench=WarmSweep -benchtime=1x -run='^$' ./internal/cluster

# Fuzz smoke: each fuzzer gets a short budget; any crasher fails the gate.
go test -fuzz='^FuzzProgBuilder$' -fuzztime=10s -run='^$' ./internal/prog
go test -fuzz='^FuzzWorkloadProfile$' -fuzztime=10s -run='^$' ./internal/workload

# Measured-performance gate: BenchmarkEngine/j=1 must hold its speedup over
# the pre-rewrite baseline recorded in BENCH_pipeline.json.
go run ./cmd/benchgate -compare

# svwd smoke: boot the daemon on a random port, drive one /v1/run and one
# /v1/sweep through svwload -smoke, and require the responses to be
# byte-identical to the equivalent svwsim -json invocations.
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
go build -o "$tmp" ./cmd/svwd ./cmd/svwexp ./cmd/svwload ./cmd/svwsim ./cmd/svwstore

# Engine dedupe smoke: svwexp -all at -j 1 and -j 4 must print the same
# bytes and execute each unique job exactly once — 56 executions, the
# other 36 jobs (the summary's re-sweep of Figs. 5-7) served from memo.
dedupe_want='svwexp: engine executed 56 unique jobs, served 36 from memo'
for j in 1 4; do
    "$tmp/svwexp" -all -json -stats -benches gcc,twolf -insts 5000 -j "$j" \
        >"$tmp/dedupe_j$j.json" 2>"$tmp/dedupe_j$j.err"
    test "$(cat "$tmp/dedupe_j$j.err")" = "$dedupe_want"
done
cmp "$tmp/dedupe_j1.json" "$tmp/dedupe_j4.json"

# wait_listening <stdout-file> <label> <stderr-file>: block until the
# daemon prints its listening line (all smoke stages share this).
wait_listening() {
    i=0
    while ! grep -q 'listening on' "$1"; do
        i=$((i + 1))
        if [ "$i" -gt 100 ]; then
            echo "$2 did not come up" >&2
            cat "$3" >&2
            exit 1
        fi
        sleep 0.1
    done
}

"$tmp/svwd" -addr 127.0.0.1:0 -j 4 -grace 0 >"$tmp/svwd.out" 2>"$tmp/svwd.err" &
svwd_pid=$!
trap 'kill "$svwd_pid" 2>/dev/null || true; rm -rf "$tmp"' EXIT

wait_listening "$tmp/svwd.out" "svwd" "$tmp/svwd.err"
addr=$(sed -n 's/^svwd: listening on //p' "$tmp/svwd.out")

smoke_insts=20000
"$tmp/svwload" -smoke -url "http://$addr" \
    -configs ssq+svw -benches gcc,twolf -insts "$smoke_insts" >"$tmp/got.json"
"$tmp/svwsim" -json -config ssq+svw -bench gcc -insts "$smoke_insts" >"$tmp/want.json"
"$tmp/svwsim" -json -config ssq+svw -bench gcc,twolf -insts "$smoke_insts" >>"$tmp/want.json"
cmp "$tmp/got.json" "$tmp/want.json"

# Observability smoke: the daemon must expose Prometheus text with the
# request histograms, per-stage timings and gate occupancy series.
"$tmp/svwload" -metrics -url "http://$addr" >"$tmp/svwd_metrics.txt"
grep -q '^svw_http_request_seconds_bucket' "$tmp/svwd_metrics.txt"
grep -q '^svw_http_requests_total{code="200",endpoint="/v1/run"}' "$tmp/svwd_metrics.txt"
grep -q '^svw_stage_seconds_bucket{stage="engine_run"' "$tmp/svwd_metrics.txt"
grep -q '^svw_gate_in_use' "$tmp/svwd_metrics.txt"
grep -q '^svw_store_requests_total{tier="miss"}' "$tmp/svwd_metrics.txt"

# Study-sharing smoke: a study is a sweep plus a reduce over ordinary
# store cells. After a sweep of the five Fig. 7 registry configs, the
# Fig. 7 study over the same benches and insts must run ZERO engine jobs
# (memo hits and misses unchanged) and answer byte-identically to
# svwexp -json -fig 7.
"$tmp/svwload" -smoke -url "http://$addr" -configs base-rle,rle,rle+svw,rle+svw-squ,rle+perfect \
    -benches gcc,twolf -insts "$smoke_insts" >/dev/null
"$tmp/svwload" -stats -url "http://$addr" >"$tmp/study_before.json"
curl -fsS "http://$addr/v1/studies/ladder?fig=7&benches=gcc,twolf&insts=$smoke_insts" \
    >"$tmp/study_got.json"
"$tmp/svwload" -stats -url "http://$addr" >"$tmp/study_after.json"
memo_counters() { grep -E '"memo_(hits|misses)"' "$1"; }
test "$(memo_counters "$tmp/study_before.json")" = "$(memo_counters "$tmp/study_after.json")"
"$tmp/svwexp" -json -fig 7 -benches gcc,twolf -insts "$smoke_insts" >"$tmp/study_want.json"
cmp "$tmp/study_got.json" "$tmp/study_want.json"

# Deadline smoke: a hopeless budget must surface as counted 504s in the
# report, not a fatal error (exit 0 with the deadline line present). The
# 8-job sweep exceeds the daemon's 4 workers, so some jobs are still
# queued when the 1ms budget fires — those sweeps come back 504.
"$tmp/svwload" -url "http://$addr" -c 2 -n 2 -deadline 1ms \
    -configs ssq,nlq,rle,ssq+svw -benches gcc,twolf -insts 500000 >"$tmp/deadline.out"
grep -q 'deadline exceeded (504)' "$tmp/deadline.out"

# Graceful drain: SIGTERM must stop the daemon cleanly.
kill -TERM "$svwd_pid"
wait "$svwd_pid"
trap 'rm -rf "$tmp"' EXIT

# Warm-restart smoke: a svwsim sweep pre-warms a persistent store
# directory; an svwd booted on that directory must answer the same jobs
# byte-identically with ZERO engine executions — every result comes off
# the disk tier (or the memory tier it was promoted into).
storedir="$tmp/store"
"$tmp/svwsim" -json -config ssq+svw -bench gcc,twolf -insts "$smoke_insts" \
    -store-dir "$storedir" >"$tmp/prewarm.json"
# The store-enabled pre-warm pass itself must be byte-identical to a
# plain store-less sweep.
"$tmp/svwsim" -json -config ssq+svw -bench gcc,twolf -insts "$smoke_insts" >"$tmp/want2.json"
cmp "$tmp/prewarm.json" "$tmp/want2.json"

# A 1-entry memory tier sends the warm probes to the disk tier, so the
# sized read and in-place decode serve them in a real process.
"$tmp/svwd" -addr 127.0.0.1:0 -j 4 -grace 0 -cache 1 -store-dir "$storedir" \
    >"$tmp/svwd2.out" 2>"$tmp/svwd2.err" &
svwd2_pid=$!
trap 'kill "$svwd2_pid" 2>/dev/null || true; rm -rf "$tmp"' EXIT
wait_listening "$tmp/svwd2.out" "restarted svwd" "$tmp/svwd2.err"
addr2=$(sed -n 's/^svwd: listening on //p' "$tmp/svwd2.out")

"$tmp/svwload" -smoke -url "http://$addr2" \
    -configs ssq+svw -benches gcc,twolf -insts "$smoke_insts" >"$tmp/warm_got.json"
cmp "$tmp/warm_got.json" "$tmp/want.json"

# Zero executions: the engine was never consulted, and the disk tier
# actually served: with one memory slot, the run's cell and at least the
# sweep's other cell must have come off the disk.
"$tmp/svwload" -stats -url "http://$addr2" >"$tmp/warm_stats.json"
grep -q '"memo_misses": 0' "$tmp/warm_stats.json"
grep -q '"memo_hits": 0' "$tmp/warm_stats.json"
grep -Eq '"disk_hits": ([2-9]|[1-9][0-9]+)' "$tmp/warm_stats.json"

kill -TERM "$svwd2_pid"
wait "$svwd2_pid"
trap 'rm -rf "$tmp"' EXIT

# Store admin smoke: the directory the warm restart just served from must
# hold exactly the gcc and twolf results, filed by svwsim and served by
# svwd under one compact key form (<bench>|<insts>|<config SHA-256>), must
# pass a full offline checksum walk, and a gc under the default cap must
# find nothing to collect and leave the directory still verifying clean.
"$tmp/svwstore" ls "$storedir" >"$tmp/svwstore_ls.out"
grep -q '^2 entries, ' "$tmp/svwstore_ls.out"
sed '$d' "$tmp/svwstore_ls.out" | awk '{print $3}' | sort >"$tmp/store_keys"
test "$(cut -d'|' -f1 "$tmp/store_keys" | tr '\n' ' ')" = "gcc twolf "
test "$(grep -Ec "^(gcc|twolf)\|$smoke_insts\|[0-9a-f]{64}\$" "$tmp/store_keys")" = 2
"$tmp/svwstore" verify "$storedir"
"$tmp/svwstore" gc "$storedir" >"$tmp/svwstore_gc.out"
grep -q '^removed 0 entries' "$tmp/svwstore_gc.out"
"$tmp/svwstore" verify "$storedir"

# Sampled smoke: sampled runs must be deterministic (two invocations
# byte-identical), must differ from the exact sweep (their results live
# under disjoint store keys and carry scaled counters), and with a store
# their fast-forward warm states are checkpointed: a different config over
# the same store re-uses every skip point instead of re-emulating, and
# svwstore verify accepts checkpoint entries like any result entry.
sample_flags="-sample-warmup 1000 -sample-detail 1000 -sample-period 5000"
"$tmp/svwsim" -json -config ssq+svw -bench gcc,twolf -insts "$smoke_insts" \
    $sample_flags >"$tmp/sampled1.json"
"$tmp/svwsim" -json -config ssq+svw -bench gcc,twolf -insts "$smoke_insts" \
    $sample_flags >"$tmp/sampled2.json"
cmp "$tmp/sampled1.json" "$tmp/sampled2.json"
if cmp -s "$tmp/sampled1.json" "$tmp/want2.json"; then
    echo "sampled sweep equals exact" >&2
    exit 1
fi

sampledir="$tmp/sampled_store"
"$tmp/svwsim" -json -config ssq+svw -bench gcc,twolf -insts "$smoke_insts" \
    $sample_flags -store-dir "$sampledir" -stats \
    >"$tmp/sampled3.json" 2>"$tmp/sampled3.err"
cmp "$tmp/sampled3.json" "$tmp/sampled1.json"
grep -q 'ckpt-puts=[1-9]' "$tmp/sampled3.err"
"$tmp/svwsim" -json -config nlq+svw -bench gcc,twolf -insts "$smoke_insts" \
    $sample_flags -store-dir "$sampledir" -stats >/dev/null 2>"$tmp/sampled4.err"
grep -q 'fast-forwards=0 ' "$tmp/sampled4.err"
grep -q 'ckpt-hits=[1-9]' "$tmp/sampled4.err"
"$tmp/svwstore" verify "$sampledir"

# Sampled ladder determinism: a sampled Fig. 5 ladder shares each window's
# oracle trace among its configurations; at -j 1 and -j 4 it must print the
# same bytes.
for j in 1 4; do
    "$tmp/svwexp" -fig 5 -json -benches gcc,twolf -insts 50000 $sample_flags -j "$j" \
        >"$tmp/sampled_fig5_j$j.json"
done
cmp "$tmp/sampled_fig5_j1.json" "$tmp/sampled_fig5_j4.json"

# Cluster smoke: a coordinator — an svwd given -peers and no -peer-self,
# so it owns no keys — over two svwd children must serve the same run and
# sweep byte-identically to svwsim -json — the fabric must be invisible
# to clients.
"$tmp/svwd" -addr 127.0.0.1:0 -j 2 -grace 0 -slow-ms 0 >"$tmp/b1.out" 2>"$tmp/b1.err" &
b1_pid=$!
"$tmp/svwd" -addr 127.0.0.1:0 -j 2 -grace 0 -slow-ms 0 >"$tmp/b2.out" 2>"$tmp/b2.err" &
b2_pid=$!
trap 'kill "$b1_pid" "$b2_pid" 2>/dev/null || true; rm -rf "$tmp"' EXIT

wait_listening "$tmp/b1.out" "svwd backend 1" "$tmp/b1.err"
wait_listening "$tmp/b2.out" "svwd backend 2" "$tmp/b2.err"
b1=$(sed -n 's/^svwd: listening on //p' "$tmp/b1.out")
b2=$(sed -n 's/^svwd: listening on //p' "$tmp/b2.out")

"$tmp/svwd" -addr 127.0.0.1:0 -grace 0 -slow-ms 0 \
    -peers "http://$b1,http://$b2" >"$tmp/ctl.out" 2>"$tmp/ctl.err" &
ctl_pid=$!
trap 'kill "$ctl_pid" "$b1_pid" "$b2_pid" 2>/dev/null || true; rm -rf "$tmp"' EXIT
wait_listening "$tmp/ctl.out" "coordinator" "$tmp/ctl.err"
ctl=$(sed -n 's/^svwd: listening on //p' "$tmp/ctl.out")

"$tmp/svwload" -smoke -url "http://$ctl" \
    -configs ssq,ssq+svw -benches gcc,twolf -insts "$smoke_insts" >"$tmp/ctl_got.json"
"$tmp/svwsim" -json -config ssq -bench gcc -insts "$smoke_insts" >"$tmp/ctl_want.json"
"$tmp/svwsim" -json -config ssq,ssq+svw -bench gcc,twolf -insts "$smoke_insts" >>"$tmp/ctl_want.json"
cmp "$tmp/ctl_got.json" "$tmp/ctl_want.json"

# One forward route: the coordinator sends engine work only as cells-form
# /v1/sweep — the smoke's run went out as a one-cell batch — so the
# backends served sweeps and not a single /v1/run.
"$tmp/svwload" -metrics -url "http://$b1" >"$tmp/backend_metrics.txt"
"$tmp/svwload" -metrics -url "http://$b2" >>"$tmp/backend_metrics.txt"
grep -q '^svw_http_requests_total{code="200",endpoint="/v1/sweep"}' "$tmp/backend_metrics.txt"
if grep '^svw_http_requests_total{.*endpoint="/v1/run"' "$tmp/backend_metrics.txt"; then
    echo "ci: the coordinator forwarded /v1/run to a backend" >&2
    exit 1
fi

# One forward per backend per sweep: the coordinator sends each rendezvous owner one
# cells-form batch, so the 4-cell smoke sweep, repeated, may reach the two
# backends with at most 2 requests in total (one per cell would be 4).
backend_requests() {
    sed -n 's/.*"requests": \([0-9]*\).*/\1/p' "$1" | awk '{s += $1} END {print s + 0}'
}
"$tmp/svwload" -stats -url "http://$ctl" >"$tmp/fwd_before.json"
curl -fsS -X POST -H 'Content-Type: application/json' \
    -d "{\"configs\":[\"ssq\",\"ssq+svw\"],\"benches\":[\"gcc\",\"twolf\"],\"insts\":$smoke_insts}" \
    "http://$ctl/v1/sweep" >"$tmp/fwd_got.json"
"$tmp/svwload" -stats -url "http://$ctl" >"$tmp/fwd_after.json"
"$tmp/svwsim" -json -config ssq,ssq+svw -bench gcc,twolf -insts "$smoke_insts" >"$tmp/fwd_want.json"
cmp "$tmp/fwd_got.json" "$tmp/fwd_want.json"
test "$(($(backend_requests "$tmp/fwd_after.json") - $(backend_requests "$tmp/fwd_before.json")))" -le 2

# Coordinator observability smoke: the coordinator serves the shared
# request histograms plus its per-backend dispatch series (svwctl_*).
"$tmp/svwload" -metrics -url "http://$ctl" >"$tmp/ctl_metrics.txt"
grep -q '^svw_http_request_seconds_bucket' "$tmp/ctl_metrics.txt"
grep -q '^svwctl_backend_in_flight' "$tmp/ctl_metrics.txt"
grep -q '^svwctl_backend_healthy' "$tmp/ctl_metrics.txt"
grep -q '^svwctl_jobs_total' "$tmp/ctl_metrics.txt"

# Trace smoke: all three daemons ran with -slow-ms 0, so every traced
# request logged a slow_request line and bumped the slow counter. The
# slowest coordinator trace shows its forwards to the backends, and its ID must
# also appear on one of the backends' /debug/traces — the same request,
# correlated end to end.
"$tmp/svwload" -trace-top 5 -url "http://$ctl" >"$tmp/ctl_traces.out"
grep -q '^  forward ' "$tmp/ctl_traces.out"
tid=$(sed -n 's/^trace id=\([^ ]*\) .*/\1/p' "$tmp/ctl_traces.out" | head -1)
test -n "$tid"
"$tmp/svwload" -trace-top 64 -url "http://$b1" >"$tmp/backend_traces.out"
"$tmp/svwload" -trace-top 64 -url "http://$b2" >>"$tmp/backend_traces.out"
grep -q "trace id=$tid" "$tmp/backend_traces.out"
grep -q '"msg":"slow_request"' "$tmp/ctl.err"
grep -q 'svw_slow_requests_total{endpoint="/v1/sweep"} [1-9]' "$tmp/ctl_metrics.txt"

# Membership smoke: a coordinator started on a one-backend -peers-file
# grows to two under SIGHUP while a sweep is in flight; the straddling
# sweep and a post-growth sweep must both stay byte-identical to
# svwsim -json, and the new backend must appear in the pool.
echo "http://$b1" >"$tmp/backends.txt"
"$tmp/svwd" -addr 127.0.0.1:0 -grace 0 \
    -peers-file "$tmp/backends.txt" >"$tmp/ctl2.out" 2>"$tmp/ctl2.err" &
ctl2_pid=$!
trap 'kill "$ctl2_pid" "$ctl_pid" "$b1_pid" "$b2_pid" 2>/dev/null || true; rm -rf "$tmp"' EXIT
wait_listening "$tmp/ctl2.out" "coordinator (membership)" "$tmp/ctl2.err"
ctl2=$(sed -n 's/^svwd: listening on //p' "$tmp/ctl2.out")

"$tmp/svwload" -smoke -url "http://$ctl2" \
    -configs ssq,nlq,rle -benches gcc,twolf -insts "$smoke_insts" >"$tmp/m_got.json" &
sweep_pid=$!
echo "http://$b2" >>"$tmp/backends.txt"
kill -HUP "$ctl2_pid"
wait "$sweep_pid"

"$tmp/svwsim" -json -config ssq -bench gcc -insts "$smoke_insts" >"$tmp/m_want.json"
"$tmp/svwsim" -json -config ssq,nlq,rle -bench gcc,twolf -insts "$smoke_insts" >>"$tmp/m_want.json"
cmp "$tmp/m_got.json" "$tmp/m_want.json"

# The reload must have landed (logged, and the added backend now serves):
# a second identical sweep over the grown pool must match byte for byte.
grep -q '^svwd: reload: +\[' "$tmp/ctl2.err"
"$tmp/svwload" -stats -url "http://$ctl2" >"$tmp/m_stats.json"
grep -q "http://$b2" "$tmp/m_stats.json"
"$tmp/svwload" -smoke -url "http://$ctl2" \
    -configs ssq,nlq,rle -benches gcc,twolf -insts "$smoke_insts" >"$tmp/m_got2.json"
cmp "$tmp/m_got2.json" "$tmp/m_want.json"

kill -TERM "$ctl2_pid"
wait "$ctl2_pid"
trap 'kill "$ctl_pid" "$b1_pid" "$b2_pid" 2>/dev/null || true; rm -rf "$tmp"' EXIT

# Graceful drain for the whole fabric.
kill -TERM "$ctl_pid"
wait "$ctl_pid"
kill -TERM "$b1_pid" "$b2_pid"
wait "$b1_pid" "$b2_pid"
trap 'rm -rf "$tmp"' EXIT

# Sharded-store smoke: two svwd with SEPARATE persistent store dirs and
# -peer-learn behind a coordinator svwd. The coordinator's sweep lands each cell's entry on its
# rendezvous owner, and teaches both daemons the membership; a repeat of
# the same sweep DIRECT at one backend must stay byte-identical with ZERO
# new engine executions — the cells that backend does not own arrive from
# their owner in ONE forwarded batch — and SIGTERM must drain both
# write-behind queues so the two directories together hold exactly one
# verified entry per cell.
sdir1="$tmp/shard1"
sdir2="$tmp/shard2"
"$tmp/svwd" -addr 127.0.0.1:0 -j 2 -grace 0 -store-dir "$sdir1" -peer-learn \
    >"$tmp/s1.out" 2>"$tmp/s1.err" &
s1_pid=$!
"$tmp/svwd" -addr 127.0.0.1:0 -j 2 -grace 0 -store-dir "$sdir2" -peer-learn \
    >"$tmp/s2.out" 2>"$tmp/s2.err" &
s2_pid=$!
trap 'kill "$s1_pid" "$s2_pid" 2>/dev/null || true; rm -rf "$tmp"' EXIT
wait_listening "$tmp/s1.out" "sharded svwd 1" "$tmp/s1.err"
wait_listening "$tmp/s2.out" "sharded svwd 2" "$tmp/s2.err"
s1=$(sed -n 's/^svwd: listening on //p' "$tmp/s1.out")
s2=$(sed -n 's/^svwd: listening on //p' "$tmp/s2.out")

"$tmp/svwd" -addr 127.0.0.1:0 -grace 0 \
    -peers "http://$s1,http://$s2" >"$tmp/sctl.out" 2>"$tmp/sctl.err" &
sctl_pid=$!
trap 'kill "$sctl_pid" "$s1_pid" "$s2_pid" 2>/dev/null || true; rm -rf "$tmp"' EXIT
wait_listening "$tmp/sctl.out" "coordinator (sharded)" "$tmp/sctl.err"
sctl=$(sed -n 's/^svwd: listening on //p' "$tmp/sctl.out")

# 16 cells (8 configs x 2 benches): enough that "one backend owns every
# cell" — which would make the peer_hits assertion vacuous — has
# negligible odds (~2^-16).
shard_configs=ssq,nlq,rle,ssq+svw,nlq+svw,rle+svw,base-ssq,base-nlq
"$tmp/svwload" -smoke -url "http://$sctl" \
    -configs "$shard_configs" -benches gcc,twolf -insts "$smoke_insts" >"$tmp/s_got.json"
"$tmp/svwsim" -json -config ssq -bench gcc -insts "$smoke_insts" >"$tmp/s_want.json"
"$tmp/svwsim" -json -config "$shard_configs" -bench gcc,twolf -insts "$smoke_insts" \
    >>"$tmp/s_want.json"
cmp "$tmp/s_got.json" "$tmp/s_want.json"

# Repeat the sweep DIRECT at backend 1. (A repeat through the coordinator is all
# memory hits at the owners, so only a direct sweep exercises svwd's own
# forwarding.)
s2_sweeps() {
    "$tmp/svwload" -metrics -url "http://$s2" |
        sed -n 's|^svw_http_requests_total{code="200",endpoint="/v1/sweep"} ||p'
}
"$tmp/svwload" -stats -url "http://$s1" >"$tmp/s1_before.json"
misses_before=$(sed -n 's/.*"memo_misses": \([0-9]*\).*/\1/p' "$tmp/s1_before.json")
s2_before=$(s2_sweeps)
curl -fsS -X POST -H 'Content-Type: application/json' \
    -d "{\"configs\":[\"$(echo "$shard_configs" | sed 's/,/","/g')\"],\"benches\":[\"gcc\",\"twolf\"],\"insts\":$smoke_insts}" \
    "http://$s1/v1/sweep" >"$tmp/s_direct.json"
"$tmp/svwsim" -json -config "$shard_configs" -bench gcc,twolf -insts "$smoke_insts" \
    >"$tmp/s_direct_want.json"
cmp "$tmp/s_direct.json" "$tmp/s_direct_want.json"

# The repeat served at least one cell from the peer, computed nothing, and
# sent the peer exactly one /v1/sweep: one forward per owner.
"$tmp/svwload" -stats -url "http://$s1" >"$tmp/s1_after.json"
grep -Eq '"peer_hits": [1-9]' "$tmp/s1_after.json"
misses_after=$(sed -n 's/.*"memo_misses": \([0-9]*\).*/\1/p' "$tmp/s1_after.json")
test "$misses_before" = "$misses_after"
test "$(($(s2_sweeps) - s2_before))" -eq 1

kill -TERM "$sctl_pid"
wait "$sctl_pid"
kill -TERM "$s1_pid" "$s2_pid"
wait "$s1_pid" "$s2_pid"
trap 'rm -rf "$tmp"' EXIT

# Write-behind drained on SIGTERM: one entry per swept cell, split across
# the two shards (an owner's answer is never stored by its requester, so
# no entry is ever duplicated onto a non-owner's disk), and both
# directories verify clean.
n1=$("$tmp/svwstore" ls "$sdir1" | sed -n 's/^\([0-9][0-9]*\) entries,.*/\1/p')
n2=$("$tmp/svwstore" ls "$sdir2" | sed -n 's/^\([0-9][0-9]*\) entries,.*/\1/p')
test "$((n1 + n2))" -eq 16
test "$n1" -gt 0
test "$n2" -gt 0
"$tmp/svwstore" verify "$sdir1"
"$tmp/svwstore" verify "$sdir2"
