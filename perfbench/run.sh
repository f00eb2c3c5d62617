#!/usr/bin/env bash
# Build perfbench when it is missing or older than any source file of the
# checkout, then run it with this script's arguments.
#
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Run from the repository root. `cargo run` is not used because the
# `bench` crate's build script watches `.git/HEAD`: in a checkout without
# `.git` cargo rebuilds and relinks the benchmark on every invocation,
# which costs more than a short run measures. The stamp written after a
# successful build stands in for that check: any file of the checkout
# newer than the stamp triggers a rebuild.
set -euo pipefail

manifest=perfbench/Cargo.toml
if [[ ! -f $manifest ]]; then
    echo "run.sh: $manifest not found; run from the repository root" >&2
    exit 2
fi
target=${CARGO_TARGET_DIR:-perfbench/target}
bin=$target/release/perfbench
stamp=$target/perfbench.stamp

stale=
if [[ ! -x $bin || ! -f $stamp ]]; then
    stale=missing
else
    stale=$(find . \( -path ./.git -o -path ./target -o -path ./perfbench/target \
        -o -path ./.bench_build -o -path "./${target#./}" \) -prune \
        -o -type f -newer "$stamp" -print -quit)
fi
if [[ -n $stale ]]; then
    # Stamped before the build, so a source edited during it stays newer.
    mkdir -p "$target"
    touch "$stamp.next"
    cargo build --release --offline --quiet --manifest-path "$manifest" >&2
    mv "$stamp.next" "$stamp"
fi
exec "$bin" "$@"
