#!/usr/bin/env bash
# The one command of the repo benchmark (see benchmark/README.md).
#
#   bash benchmark/run.sh                      every workload, end to end
#   bash benchmark/run.sh --workload NAME      one workload
#   bash benchmark/run.sh --trace [1]          the traced run instead
#   bash benchmark/run.sh --self-test          tiny sizes + unit tests
#   options: --seed N (default 13)  --seconds S (default 12)
#
# Builds the program from the working tree on every invocation, so the
# numbers never come from a stale binary, then runs each workload in a
# fresh child process, so peak memory is per workload. Any failure (the
# build, a child killed, a wrong output) ends the script non-zero.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"

target="${CARGO_TARGET_DIR:-$here/target}"
case "$target" in
/*) ;;
*) target="$PWD/$target" ;;
esac
export CARGO_TARGET_DIR="$target"

workloads=()
seed=13
seconds=12
trace=0
self_test=0
while [ $# -gt 0 ]; do
    case "$1" in
    --workload) workloads+=("$2"); shift 2 ;;
    --seed) seed="$2"; shift 2 ;;
    --seconds) seconds="$2"; shift 2 ;;
    --trace)
        trace=1
        shift
        if [ "${1:-}" = 0 ] || [ "${1:-}" = 1 ]; then trace="$1"; shift; fi
        ;;
    --self-test) self_test=1; shift ;;
    *) echo "run.sh: unknown argument $1" >&2; exit 2 ;;
    esac
done
if [ ${#workloads[@]} -eq 0 ]; then
    workloads=(fabric_fwd ewo_replay sro_conn fault_sweep)
fi

cargo build --release --offline --locked --manifest-path "$here/Cargo.toml" >&2
bench="$target/release/swishmem-benchmark"

cd "$root"
export BENCH_GIT_SHA="$(git rev-parse --short=12 HEAD 2>/dev/null || echo unknown)"
export BENCH_RUSTC="$(rustc --version)"

if [ "$self_test" = 1 ]; then
    "$bench" --self-test --out-dir benchmark/out
    cargo test --release --offline --locked --manifest-path "$here/Cargo.toml" >&2
    exit 0
fi

for w in "${workloads[@]}"; do
    "$bench" --workload "$w" --seed "$seed" --seconds "$seconds" --trace "$trace" \
        --out-dir benchmark/out
done
