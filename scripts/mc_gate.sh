#!/usr/bin/env sh
# The full-budget model-checking gate (docs/MODELCHECK.md), run by
# `just mc` and CI: release build, the validated commute matrix from the
# effect analysis (archived with the shard plans as target/analysis.json),
# >= 10k schedules per scenario, and >= 30% pruning from the reduction on
# the single-group presets. A violation exits 1 and leaves its minimized
# repro and postmortem bundle in target/.
set -eu
cd "$(dirname "$0")/.."

mkdir -p target
cargo run -q -p guesstimate-analysis --bin analyze -- --shard-plan --json target/analysis.json > /dev/null
cargo run --release -q -p guesstimate-mc --bin mc -- --preset all \
    --matrix target/analysis.json --max-schedules 12000 \
    --min-schedules 10000 --min-prune 0.30 --out target
cargo run --release -q -p guesstimate-mc --bin mc -- --preset cross-group \
    --max-schedules 12000 --min-schedules 10000 --out target
