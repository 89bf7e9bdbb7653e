#!/usr/bin/env bash
# Builds `msq` (root workspace) and `mbench` (this package), then runs the
# benchmark.
#
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#       one workload in a fresh process; the last stdout line is the JSON
#       result (the BENCHMARK.json contract)
#   benchmark/run.sh [--repeat N] [--seed N] [--seconds S] [--smoke]
#       the whole suite, one fresh process per workload, every metric as
#       `name value unit`; --repeat N prints the A/A spread table
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
cd "$root"

# Both builds share one target directory (the driver sets
# CARGO_TARGET_DIR; otherwise the repository's own `target/`), so `msq`
# and `mbench` end up side by side and path dependencies compile once.
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$root/target}"
case "$CARGO_TARGET_DIR" in
  /*) ;;
  *) CARGO_TARGET_DIR="$root/$CARGO_TARGET_DIR" ;;
esac
export MBENCH_DIR="$here"

cargo build --release --offline --quiet -p millstream-core --bin msq >&2
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2

mode=suite
for arg in "$@"; do
  if [ "$arg" = "--workload" ]; then mode=run; fi
done
exec "$CARGO_TARGET_DIR/release/mbench" "$mode" "$@"
