#!/usr/bin/env bash
# Builds the server binary and the benchmark from source, then runs one
# benchmark workload:
#
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Run from the repository root. Build output and the scenario cache go to
# $CARGO_TARGET_DIR (default .bench_build).
set -euo pipefail

if [[ ! -f Cargo.toml || ! -d crates/serve || ! -f perfbench/Cargo.toml ]]; then
    echo "perfbench: run from the repository root (crates/ and perfbench/ not found)" >&2
    exit 2
fi
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
# Cargo's progress goes to stderr; stdout carries only the benchmark report.
cargo build --release --offline --quiet -p t2fsnn-serve --bin t2fsnn_serve >&2
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/perfbench" "$@"
