#!/usr/bin/env bash
# Runs the whole benchmark twice on one build and fails if any end-to-end
# metric differs between the two sets by more than its bound in
# BENCHMARK.json. Prints the two sets side by side.
#
#   benchmark/agree.sh            # seed 42
#   benchmark/agree.sh --seed 7   # the same on a second seed
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
exec cargo run --release --offline --quiet --manifest-path "$here/Cargo.toml" -- --agree "$@"
