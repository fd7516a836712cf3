#!/usr/bin/env bash
# The command BENCHMARK.json names. Builds the benchmark in both feature
# sets — the default build, which end-to-end runs use, and `--features
# telemetry`, which traced runs use so that the program's own counters can
# be read — and runs the one `--trace` selects. Run it from the repository
# root:
#
#   bash perf/bench.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#   bash perf/bench.sh all [--trace 1] [--quick]
#   bash perf/bench.sh compare <baseline.json> <candidate.json>
#
# A first call compiles both builds (about 20 s each on two cores); later
# calls only ask cargo whether they are fresh.
set -euo pipefail
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
target=${CARGO_TARGET_DIR:-$here/target}
case $target in /*) ;; *) target=$PWD/$target ;; esac

build() { # <target dir> [cargo flags ...]
    local dir=$1
    shift
    cargo build --release --offline --quiet \
        --manifest-path "$here/Cargo.toml" --target-dir "$dir" "$@" >&2
}
build "$target"
build "$target/traced" --features telemetry

traced=0
args=("$@")
for ((i = 0; i < ${#args[@]}; i++)); do
    case ${args[i]} in
    --trace) traced=${args[i + 1]:-0} ;;
    --traced) traced=1 ;;
    esac
done
case ${1:-} in
run | all | compare | validate) ;;
*) set -- run "$@" ;;
esac
if [ "$traced" = 1 ]; then
    exec "$target/traced/release/perf" "$@"
fi
exec "$target/release/perf" "$@"
