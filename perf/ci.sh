#!/usr/bin/env bash
# What a CI job for the benchmark runs, from the repository root: both
# feature sets build offline, the unit tests pass, every workload runs
# quick (a tenth of the run length; the records are flagged and `compare`
# refuses them) untraced and traced, and BENCHMARK.json and the emitted
# records agree with the benchmark's catalogue.
#
# Not wired into .github/workflows/ci.yml: that file is outside the
# benchmark's paths and is left to a later issue.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
out=perf/out/ci

cargo test --release --offline --quiet --manifest-path perf/Cargo.toml
bash perf/bench.sh all --quick --out "$out"
bash perf/bench.sh all --quick --trace 1 --out "$out"
bash perf/bench.sh validate BENCHMARK.json "$out/results.json" "$out/results.traced.json"
