#!/usr/bin/env bash
# Builds the benchmark offline and runs it from the checkout root.
#
#   benchmark/run.sh [--workload NAME] [--seed N] [--seconds N] [--trace 0|1] [--quick]
#
# Without --workload all six run one after another. Every metric prints as
# `workload metric value unit`; the last line of each workload is one JSON
# object with `correct`, `attempted`, `failed` and `metrics`.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-benchmark/target}"
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/lidx-benchmark" "$@"
