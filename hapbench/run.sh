#!/usr/bin/env bash
# Builds the daemon under test (the repository's own hap-serve, with the
# repository's build settings) and the benchmark, then runs the benchmark.
# Run from the repository root:
#
#   bash hapbench/run.sh --workload <name|all> --seed <n> --seconds <s> [--trace 0|1]
#
# Build output lands in $CARGO_TARGET_DIR (default: .bench_build).
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
target="${CARGO_TARGET_DIR:-.bench_build}"
case "$target" in
    /*) ;;
    *) target="$PWD/$target" ;;
esac
export CARGO_TARGET_DIR="$target"

cargo build --release --offline --quiet --manifest-path "$root/Cargo.toml" --bin hap-serve >&2
cargo build --release --offline --quiet --manifest-path "$root/hapbench/Cargo.toml" >&2
exec "$target/release/hapbench" "$@"
