# Developer workflow. Run `just check` before sending a change.

# Everything CI's check step runs, in order: scripts/check.sh is the one
# list of gates; the per-step targets below call single steps of it.
check:
    ./scripts/check.sh

# Formatting gate (no writes).
fmt:
    ./scripts/check.sh fmt

# Lint gate: the whole workspace, tests and bins included, warnings fatal.
clippy:
    ./scripts/check.sh clippy

# Doc gate: rustdoc warnings are fatal.
doc:
    ./scripts/check.sh doc

# The full test suite (unit + integration + doctests, every crate).
test:
    ./scripts/check.sh tests

# Effect-analysis lint: conflict matrices for all six apps; any undeclared
# effect, footprint under-approximation, nondeterminism, or witness-refuted
# footprint (undeclared read/write) is fatal.
analyze:
    ./scripts/check.sh analyze

# Shard-plan gate: derive + sanitize + witness-check every app's ShardPlan
# twice and require byte-identical archives (docs/ANALYSIS.md "Shard plans").
shards:
    ./scripts/check.sh shards

# Effect-witness soundness, all three layers (docs/ANALYSIS.md "Soundness"):
# the analyzer's witness sanitizer over the six apps, the core witness
# recorder's unit tests, the runtime's apply-site containment tests, and
# the model checker's sneaky-preset detection + shrink regression — plus
# the same three layers for shard plans (static sanitizer + witness escape
# check in `shards`, the runtime shard-containment tests, and the mc
# mis-keyed-preset detection + shrink regression).
sanitize:
    ./scripts/check.sh shards analyze
    cargo test -q -p guesstimate-core witness
    cargo test -q -p guesstimate-runtime undeclared_read
    cargo test -q --test mc_regressions under_declared_read
    cargo test -q -p guesstimate-runtime shard
    cargo test -q --test mc_regressions mis_keyed

# Model-checker smoke: a quick bounded exploration of every single-group
# preset and of the multi-group cross-group scenario (debug build, small
# budget) — catches oracle violations early.
mc-smoke:
    ./scripts/check.sh mc_smoke

# Telemetry smoke: fixed-seed fig5 with metrics + spans + exporters on;
# validates the observability invariants and artifact well-formedness,
# and refreshes BENCH_pr4.json (docs/OBSERVABILITY.md).
bench-snapshot:
    ./scripts/check.sh bench_snapshot

# Shard-scaling gate: fixed-seed multi-group run over ThreadedNet at
# 1/2/4/8 sync groups; validates per-group stage partitioning and the
# >= 2.5x 4-group throughput gate, and refreshes BENCH_pr10.json
# (docs/PROTOCOL.md "Multi-group synchronization").
bench-shards:
    ./scripts/check.sh bench_shards

# Causal cluster report: run fig5 (short, traced) and then the obs
# report binary over its trace + spans — the merged happens-before
# timeline, the per-op lag waterfall, re-execution attribution, and
# guess-divergence windows (docs/OBSERVABILITY.md "Lag waterfalls").
obs:
    cargo run --release -q -p guesstimate-bench --bin fig5_sync_distribution 120 42 > /dev/null
    cargo run --release -q -p guesstimate-obs --bin obs

# The CI model-checking gate: release build, full budget, with the
# validated commute matrix from the effect analysis; requires >= 10k
# schedules per scenario and >= 30% pruning from the reduction.
mc:
    ./scripts/mc_gate.sh

# Tier-1 smoke: what the release gate runs.
tier1:
    cargo build --release
    cargo test -q

# Regenerate the paper's headline figures with traces enabled.
figures:
    cargo run --release -p guesstimate-bench --bin fig5_sync_distribution
    cargo run --release -p guesstimate-bench --bin fig6_sync_vs_users
    cargo run --release -p guesstimate-bench --bin failure_recovery
