#!/usr/bin/env bash
# The benchmark's single entry point.
#
#   benchmark/run.sh <workload>|all [--seed N] [--trace] [--smoke]
#   benchmark/run.sh --workload <name> --seed N --seconds S --trace 0|1   (the driver's form)
#   benchmark/run.sh --selfcheck [--seed N] [--smoke]
#
# Builds the benchmark package (release, offline; into $CARGO_TARGET_DIR when
# set, else benchmark/target) and runs it from the repository root.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml
exec "${CARGO_TARGET_DIR:-benchmark/target}/release/rechord-benchmark" "$@"
