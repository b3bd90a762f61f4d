#!/usr/bin/env bash
# The repo benchmark's one command. Works from any directory.
#
#   benchmark/run.sh                      every workload, both passes
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#                                         one pass of one workload (the form
#                                         BENCHMARK.json names)
#   benchmark/run.sh --smoke              a twentieth of the size, seconds
#   benchmark/run.sh --selftest           fmt, clippy and the package's tests
#                                         (root CI does not see this package)
#   benchmark/run.sh compare A.json B.json
set -euo pipefail
cd "$(dirname "$0")/.."
manifest=benchmark/Cargo.toml

case "${1:-}" in
--selftest)
    cargo fmt --manifest-path "$manifest" --check
    cargo clippy --manifest-path "$manifest" --offline --all-targets -- -D warnings
    cargo test --manifest-path "$manifest" --offline --release
    ;;
compare)
    exec cargo run --release --quiet --offline --manifest-path "$manifest" -- "$@"
    ;;
*)
    exec cargo run --release --quiet --offline --manifest-path "$manifest" -- run "$@"
    ;;
esac
