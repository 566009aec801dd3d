//! `guesstimate-mc`: a bounded schedule model checker for the
//! GUESSTIMATE runtime.
//!
//! The checker drives *real* [`guesstimate_runtime::Machine`]s — the
//! same protocol code deployed everywhere else in this repository —
//! through a controlled scheduler ([`guesstimate_net::SchedNet`]) in
//! which every message delivery, message loss, late join and timer
//! firing is an explicit choice point. It enumerates delivery
//! interleavings depth-first with sleep-set partial-order reduction
//! whose independence relation is grounded in the validated operation
//! effect analysis (`guesstimate-analysis` → `guesstimate_runtime::commute`),
//! checks the paper's §3 invariants at every explored state, and replays
//! each terminal schedule through the executable semantic model
//! (`guesstimate-semantics`) as a refinement check. Violations are
//! delta-debugged to a minimal, replayable JSON schedule.
//!
//! One explorer serves two cluster shapes. Everything scheduling-related
//! — the choice list, the sleep-set DFS, replay, and the CLI's reporting
//! — is generic over the small [`Scenario`] trait, whose two
//! implementations are the single-group presets ([`SingleGroup`]) and
//! the multi-group `cross-group` fixture ([`multigroup::CrossGroup`]).
//!
//! Layout:
//!
//! * [`scenario`] — the [`Scenario`] trait, the by-name lookup
//!   ([`NamedScenario`]), and the single-group checking presets (small
//!   clusters with conflicting workloads) with their deterministic prelude.
//! * [`schedule`] — the choice alphabet ([`Step`]) and the replayable
//!   JSON schedule file format.
//! * [`mod@explore`] — the generic DFS explorer, the generic half of the
//!   independence relation, and schedule replay.
//! * [`mod@multigroup`] — the `cross-group` fixture: multi-group
//!   [`guesstimate_runtime::MultiMachine`] clusters, per-group prefix
//!   oracles, and the coordinated cross-round oracle.
//! * [`oracle`] — single-group step/terminal oracles and the state digest.
//! * [`shrink`] — ddmin minimization of failing schedules.
//!
//! See `docs/MODELCHECK.md` for the full design and soundness argument.

#![warn(missing_docs)]

pub mod explore;
pub mod multigroup;
pub mod oracle;
pub mod scenario;
pub mod schedule;
pub mod shrink;

pub use explore::{explore, replay, replay_traced, ExploreConfig, Outcome, ReplayReport};
pub use multigroup::{CrossGroup, CROSS_GROUP};
pub use oracle::{check_step, check_terminal, state_digest, Violation};
pub use scenario::{
    Built, NamedScenario, Preset, Scenario, SingleGroup, MISKEYED, NEGATIVE, PRESETS, SNEAKY,
};
pub use schedule::{Schedule, Step, TamperSpec};
pub use shrink::minimize;
