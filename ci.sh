#!/usr/bin/env bash
# CI gates.
#
#   ./ci.sh            per-push gate: build, full test suite, quick-scale
#                      end-to-end repro (~1 min on one core), checked-in
#                      digests of its stdout, of the traced fig1 trace
#                      and of the oversub artefacts, a traced
#                      + telemetry-sampled fig1 with the schema,
#                      check-metrics and fault-provenance (`repro
#                      explain`) reconciliation gates, the small-grid
#                      oversubscription observatory with its artefact
#                      verification (`repro oversub --check`), and the
#                      `repro serve` lifecycle gate (submit through a
#                      live daemon, self-scrape reconciliation, clean
#                      SIGTERM)
#   ./ci.sh nightly    full-scale gate: `repro all --scale 1` (12 GB
#                      simulated GPU, hours on one core), traced fig1 at
#                      full scale with the schema gate, trend recording
#                      into nightly-out/, and the perf-regression gate
#                      (`repro regress`) over the accumulated trend —
#                      exits non-zero when a headline metric regressed.
#
# Run nightly from cron (the trend file accumulates across nights, so the
# regression baseline grows), e.g.:
#
#   7 2 * * * cd /path/to/repo && ./ci.sh nightly >> nightly-out/nightly.log 2>&1
set -euo pipefail
cd "$(dirname "$0")"

target="${1:-push}"

echo "== cargo build --release =="
cargo build --release --workspace

case "$target" in
push)
    echo "== cargo test =="
    cargo test -q --workspace

    echo "== repro all --scale 128 (quick-scale end-to-end) =="
    mkdir -p ci-out
    ./target/release/repro all --scale 128 --json --out ci-out | tee ci-out/repro-all.txt

    echo "== repro all stdout digest (simulated output must not drift) =="
    # Strip the three host-dependent line kinds (the platform line's sweep
    # thread count, per-experiment wall time, artefact paths); everything
    # left is simulated output and must hash to the checked-in digest. A
    # deliberate output change updates the digest file in the same commit.
    want=$(cat tests/golden/repro_all_scale128.sha256)
    got=$(grep -vE '^# platform: .*sweep threads = [0-9]+$|^  \[[A-Za-z0-9_]+ regenerated in [0-9.]+s\]$|^  wrote ' \
        ci-out/repro-all.txt | sha256sum | cut -d' ' -f1)
    if [ "$got" != "$want" ]; then
        echo "repro all --scale 128 stdout digest $got != checked-in $want" >&2
        exit 1
    fi

    echo "== repro fig1/table1/table2 --scale 128 --retry-crosscheck (scan vs event-driven equivalence) =="
    # Runs the event-driven replay bookkeeping and the reference rescan
    # side by side; hard asserts fire if the closed-form skip would ever
    # diverge from the scan's exact counters/buffer writes. fig1 covers
    # regular/random; table1 and table2 add the kernels whose blocks
    # share residency words (sgemm, stream, tealeaf, hpgmg).
    for exp in fig1 table1 table2; do
        ./target/release/repro "$exp" --scale 128 --no-progress --retry-crosscheck \
            --out ci-out/crosscheck > /dev/null
    done

    echo "== repro fig1 --scale 16 --trace-out --metrics-out (traced+sampled run) =="
    t0=$(date +%s.%N)
    ./target/release/repro fig1 --scale 16 --no-progress --trace-cap 8192 \
        --trace-out ci-out/trace.json --metrics-out ci-out/metrics
    t1=$(date +%s.%N)
    ./target/release/repro check-trace ci-out/trace.json
    ./target/release/repro check-metrics ci-out/metrics

    echo "== traced fig1 trace digest (exported trace must not drift) =="
    # The trace is deterministic except for the host wall-clock stamps
    # under args.wall_ns; zero those and the rest must hash to the
    # checked-in digest, at any --threads.
    want=$(cat tests/golden/trace_fig1_scale16.sha256)
    got=$(sed -E 's/"wall_ns":[0-9]+/"wall_ns":0/g' ci-out/trace.json | sha256sum | cut -d' ' -f1)
    if [ "$got" != "$want" ]; then
        echo "fig1 --scale 16 trace digest $got != checked-in $want" >&2
        exit 1
    fi

    echo "== repro explain (fault-provenance reconciliation gate) =="
    # explain re-derives the root-cause decomposition from the sampled
    # artefacts and exits non-zero if the attribution columns fail to
    # partition the counter columns exactly.
    ./target/release/repro explain ci-out/metrics > ci-out/explain.txt

    echo "== repro lineage (fault-lineage reconciliation gate) =="
    # lineage re-renders the event-sourced lifecycle analytics from the
    # .lineage artefacts, and --check reconciles every stream's per-kind
    # totals against its sibling sample CSV, exiting non-zero on drift.
    ./target/release/repro lineage ci-out/metrics > ci-out/lineage.txt
    ./target/release/repro lineage --check ci-out/metrics
    ./target/release/repro bench-append ci-out/BENCH_hotpaths.json \
        fig1_scale16_traced "$(echo "$t1 $t0" | awk '{printf "%.3f", $1 - $2}')"

    echo "== repro oversub --grid small (oversubscription observatory gate) =="
    # The push gate sweeps the small ratio×policy grid (2 workloads ×
    # all 4 eviction policies × 4 ratios), renders the thrash-cliff map
    # with per-cliff root-cause diffs, then re-verifies every artefact
    # from disk alone: tsv parse → re-render must be byte-identical, the
    # knee detector must reproduce the recorded cliff rows, and the
    # exposition must match the tsv.
    ./target/release/repro oversub --grid small --scale 128 --no-progress \
        --out ci-out/oversub --metrics-out ci-out/oversub-metrics > ci-out/oversub.txt
    ./target/release/repro oversub --check ci-out/oversub
    ./target/release/repro oversub --check ci-out/oversub-metrics
    ./target/release/repro check-metrics ci-out/oversub-metrics
    ./target/release/repro report ci-out/oversub-metrics > ci-out/oversub-report.txt

    echo "== repro oversub artefact digest (simulated output must not drift) =="
    # oversub.tsv then oversub.prom, with the build-identity gauge's git
    # label blanked (it names the commit, not the simulated output).
    want=$(cat tests/golden/oversub_small_scale128.sha256)
    got=$(cat ci-out/oversub/oversub.tsv ci-out/oversub/oversub.prom \
        | sed -E 's/^(uvm_build_info\{.*)git="[^"]*"/\1git=""/' | sha256sum | cut -d' ' -f1)
    if [ "$got" != "$want" ]; then
        echo "oversub --grid small --scale 128 artefact digest $got != checked-in $want" >&2
        exit 1
    fi

    echo "== repro serve lifecycle gate (submit, scrape, --check, clean SIGTERM) =="
    # Daemon on a temp socket; `repro submit` drives a quick fig1 through
    # it; `serve --check` self-scrapes /metrics twice and reconciles the
    # live exposition against the daemon's ledger and the on-disk
    # artefact counters; SIGTERM must exit 0 with the event log and a
    # final exposition snapshot flushed.
    rm -rf ci-out/serve-out ci-out/serve.sock
    ./target/release/repro serve --socket ci-out/serve.sock \
        --out ci-out/serve-out > ci-out/serve.log 2>&1 &
    serve_pid=$!
    for _ in $(seq 1 100); do [ -S ci-out/serve.sock ] && break; sleep 0.1; done
    [ -S ci-out/serve.sock ] || { echo "serve daemon never bound its socket" >&2; exit 1; }
    ./target/release/repro submit ci-out/serve.sock fig1 --scale 128 > ci-out/serve-table.txt
    # Two checks = two scrapes: exercises both the reconciliation and the
    # monotone scrape counter.
    ./target/release/repro serve --check ci-out/serve.sock
    ./target/release/repro serve --check ci-out/serve.sock
    kill -TERM "$serve_pid"
    wait "$serve_pid"   # propagates the daemon's exit status: must be 0
    for f in ci-out/serve-out/serve-events.tsv ci-out/serve-out/serve.prom \
             ci-out/serve-out/req0001-fig1/table.txt; do
        [ -f "$f" ] || { echo "serve shutdown did not flush $f" >&2; exit 1; }
    done
    ;;
nightly)
    echo "== repro all --scale 1 (full-scale end-to-end, telemetry-sampled) =="
    t0=$(date +%s.%N)
    ./target/release/repro all --scale 1 --json --no-progress --out nightly-out \
        --metrics-out nightly-out/metrics
    t1=$(date +%s.%N)
    ./target/release/repro check-metrics nightly-out/metrics
    ./target/release/repro explain nightly-out/metrics > nightly-out/explain.txt
    ./target/release/repro lineage nightly-out/metrics > nightly-out/lineage.txt
    ./target/release/repro lineage --check nightly-out/metrics
    ./target/release/repro bench-append nightly-out/BENCH_hotpaths.json \
        all_scale1 "$(echo "$t1 $t0" | awk '{printf "%.3f", $1 - $2}')"

    echo "== repro fig1 --scale 1 --trace-out (traced full-scale + schema gate) =="
    # --json gives the traced run its own perf record (wall *and*
    # faults_per_sec), imported below under the fig1_scale1_traced series
    # name — so the nightly trend gates throughput, not just wall ms.
    ./target/release/repro fig1 --scale 1 --no-progress --trace-cap 8192 \
        --trace-out nightly-out/trace.json --json --out nightly-out/fig1-traced
    ./target/release/repro check-trace nightly-out/trace.json

    echo "== repro oversub (full-grid oversubscription observatory) =="
    # Every workload × every eviction policy × the full 9-point ratio
    # grid (288 points), artefact-verified from disk, then the cliff
    # positions (cliff_min_ratio / cliff_mean_ratio) join the nightly
    # trend below — a cliff sliding toward 1.0× fails `repro regress`.
    ./target/release/repro oversub --scale 16 --no-progress --json \
        --out nightly-out/oversub --metrics-out nightly-out/oversub-metrics \
        > nightly-out/oversub.txt
    ./target/release/repro oversub --check nightly-out/oversub
    ./target/release/repro check-metrics nightly-out/oversub-metrics
    ./target/release/repro report nightly-out/oversub-metrics > nightly-out/oversub-report.txt

    echo "== perf-regression gate over the nightly trend =="
    # The trend file persists across nights (it lives outside the per-run
    # report): import tonight's headline metrics, then gate the newest
    # entry of every series against the median of its history.
    ./target/release/repro trend-import nightly-out/ci_trend.json \
        nightly-out/BENCH_hotpaths.json fig1
    ./target/release/repro trend-import nightly-out/ci_trend.json \
        nightly-out/BENCH_hotpaths.json table2
    # The bench-appended wall-time series and the sweep scheduler's
    # straggler bound (max_straggler_ms on the experiment records) ride
    # along in the same trend, so a hot-path layout or scheduler change
    # can't silently regress the big single points either.
    ./target/release/repro trend-import nightly-out/ci_trend.json \
        nightly-out/BENCH_hotpaths.json all_scale1
    # The traced fig1 series imports its full perf record (renamed so its
    # history stays distinct from the untraced fig1 series): wall_seconds
    # AND faults_per_sec are both gated by `repro regress`.
    ./target/release/repro trend-import nightly-out/ci_trend.json \
        nightly-out/fig1-traced/BENCH_hotpaths.json fig1 fig1_scale1_traced
    # The observatory's thrash-cliff positions enter the trend from the
    # oversub run's own perf report; `repro regress` gates them in the
    # down-is-bad direction alongside the throughput series.
    ./target/release/repro trend-import nightly-out/ci_trend.json \
        nightly-out/oversub/BENCH_hotpaths.json oversub
    ./target/release/repro regress nightly-out/ci_trend.json
    ;;
*)
    echo "ci.sh: unknown target '$target' (expected nothing or 'nightly')" >&2
    exit 2
    ;;
esac

echo "== ci.sh ($target): all green =="
