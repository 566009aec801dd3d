#!/usr/bin/env sh
# The check pipeline: the one list of gates that `just check` and CI run.
# With no arguments every default step runs in order; naming steps runs
# only those (the justfile's per-step targets call it that way).
#
#   ./scripts/check.sh [STEP...]
#   STEP: fmt clippy doc tests shards mc_smoke bench_snapshot bench_shards
#         analyze (not a default step: `shards` runs the same lint)
#
# The full-budget model-checking gate is scripts/mc_gate.sh.
set -eu
cd "$(dirname "$0")/.."

fmt() {
    cargo fmt --all --check
}

# Lint gate: the whole workspace, tests and bins included, warnings fatal.
clippy() {
    cargo clippy --workspace --all-targets -- -D warnings
}

# Doc gate: rustdoc warnings (broken intra-doc links, missing docs on the
# public protocol surface) are fatal.
doc() {
    RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps -q
}

# The full test suite (unit + integration + doctests, every crate).
tests() {
    cargo test --workspace -q
}

# Effect-analysis lint: conflict matrices for all six apps; undeclared
# effects, footprint under-approximations, nondeterminism and
# witness-refuted footprints (undeclared reads/writes caught by
# perturbation probing) are fatal (docs/ANALYSIS.md).
analyze() {
    cargo run -q -p guesstimate-analysis --bin analyze
}

# The effect-analysis lint plus the shard-plan gate: derive, sanitize and
# witness-check every app's ShardPlan and archive it, then re-derive and
# require the archive byte-identical (deterministic derivation;
# docs/ANALYSIS.md "Shard plans").
shards() {
    cargo run -q -p guesstimate-analysis --bin analyze -- --shard-plan --json target/shard_plans.json
    cargo run -q -p guesstimate-analysis --bin analyze -- --shard-plan --json target/shard_plans_again.json > /dev/null
    cmp target/shard_plans.json target/shard_plans_again.json
}

# Model-checker smoke: bounded exploration (debug build, small budget) of
# every single-group preset and of the multi-group `cross-group` scenario,
# with all oracles armed (docs/MODELCHECK.md).
mc_smoke() {
    cargo run -q -p guesstimate-mc --bin mc -- --preset all --max-schedules 400
    cargo run -q -p guesstimate-mc --bin mc -- --preset cross-group --max-schedules 400
}

# Telemetry smoke: fixed-seed fig5 with the observability stack on,
# self-validated invariants + artifact well-formedness; refreshes
# BENCH_pr4/6/8/9.json (docs/OBSERVABILITY.md).
bench_snapshot() {
    ./scripts/bench_snapshot.sh
}

# Shard-scaling gate: fixed-seed multi-group run at 1/2/4/8 sync groups;
# refreshes BENCH_pr10.json (docs/PROTOCOL.md "Multi-group
# synchronization").
bench_shards() {
    ./scripts/bench_shards.sh
}

if [ $# -eq 0 ]; then
    set -- fmt clippy doc tests shards mc_smoke bench_snapshot bench_shards
fi
for step in "$@"; do
    case "$step" in
        fmt | clippy | doc | tests | analyze | shards | mc_smoke | bench_snapshot | bench_shards)
            "$step"
            ;;
        *)
            echo "check.sh: unknown step \`$step\`" >&2
            exit 2
            ;;
    esac
done
