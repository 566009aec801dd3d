//! Stateless depth-first exploration with sleep-set partial-order
//! reduction — one explorer for every [`Scenario`].
//!
//! The explorer enumerates schedules of a scenario's post-prelude
//! cluster. Each tree node is a scheduler state; its outgoing edges are
//! the **enabled choices**: deliver any in-flight message, drop one
//! (while the scenario's loss budget lasts), and — in quiet phases — admit
//! a staged joiner or fire the earliest timer. Machines are not
//! clonable (completions are closures), so backtracking is *stateless*:
//! the cluster is rebuilt from the scenario and the current path prefix is
//! replayed. The prelude and every step are deterministic, so replay
//! reproduces the node exactly.
//!
//! Everything here is generic over the scenario and monomorphised over
//! its actor type: the single-group presets ([`SingleGroup`]) and the
//! multi-group `cross-group` fixture share the choice list, the DFS loop,
//! schedule replay and the quiesced-then-terminal-oracle rule.
//!
//! ## Sleep sets
//!
//! The reduction is the classic sleep-set algorithm (Godefroid): when a
//! node's child via choice `c` is entered, the child's sleep set is the
//! parent's sleep set plus the parent's already-explored choices,
//! restricted to choices **independent** of `c`. A choice found in its
//! node's sleep set is skipped (counted as pruned): every behavior
//! reachable through it has already been covered through a sibling,
//! because executing independent choices in either order reaches the
//! same state.
//!
//! ## The independence relation
//!
//! The generic half:
//!
//! * `Deliver(x)` / `Deliver(y)` to **different machines** are
//!   independent: delivery only mutates the target.
//! * `Drop(x)` is independent of anything except a choice about the same
//!   message.
//! * `Admit` and `Timer` are dependent on everything (they change
//!   membership/time, which feeds back into all future choices).
//!
//! Deliveries to the **same machine** are the scenario's call
//! ([`Scenario::same_target_independent`]). For the single-group presets
//! the answer is grounded in the validated effect analysis
//! (`guesstimate_runtime::commute`, fed by `guesstimate-analysis`):
//!
//! * two `Msg::Ops` batches are independent iff they belong to the *same
//!   round*, come from *different senders*, and every cross-pair of
//!   envelopes — serialized batches and piggybacked async windows alike —
//!   commutes per [`guesstimate_runtime::commute::wire_ops_commute`]
//!   (object-disjointness → validated [`CommuteMatrix`] →
//!   argument-precise footprints). This is strictly conservative: the
//!   receiver buffers a round's batches by operation id and applies them
//!   in id order, so same-round batches commute at the state level
//!   regardless — the commute gate only ever keeps *more* interleavings
//!   than necessary, never fewer.
//! * two `Msg::AsyncOp`s are independent iff they come from different
//!   senders (same-sender asyncs share a FIFO arrival slot) and their
//!   envelopes commute; an `AsyncOp` and an `Ops` batch likewise,
//!   provided the flusher is not the async op's own sender and the async
//!   envelope commutes with everything the batch carries.
//!
//! The `cross-group` fixture keeps every same-target pair dependent.
//!
//! One caveat the digest-set soundness test (`mc` crate tests) confirms
//! empirically: reordering independent deliveries can renumber messages
//! *created afterwards*, so sleep-set hits are matched on the choice
//! identity at this node, which the deterministic seq assignment makes
//! stable across replays of the same prefix.

use std::collections::BTreeSet;
use std::sync::Arc;

use guesstimate_core::CommuteMatrix;
use guesstimate_net::{Actor, SchedNet, Tracer};
use guesstimate_runtime::StateSummary;
use guesstimate_telemetry::Telemetry;

use crate::oracle::Violation;
use crate::scenario::{NamedScenario, Preset, Scenario, SingleGroup};
use crate::schedule::{Schedule, Step, TamperSpec};

/// Exploration limits and switches.
#[derive(Debug, Clone)]
pub struct ExploreConfig {
    /// Stop after this many complete schedules.
    pub max_schedules: u64,
    /// Cut any single schedule at this depth (counted as truncated).
    pub max_steps: usize,
    /// Enable the sleep-set partial-order reduction.
    pub reduction: bool,
    /// Record a digest of every terminal state (for soundness tests).
    pub collect_digests: bool,
    /// Exploration counters (schedules, prunes, oracle checks) are
    /// recorded here; the default no-op handle records nothing.
    pub telemetry: Telemetry,
}

impl Default for ExploreConfig {
    fn default() -> Self {
        ExploreConfig {
            max_schedules: 10_000,
            max_steps: 96,
            reduction: true,
            collect_digests: false,
            telemetry: Telemetry::noop(),
        }
    }
}

/// What an exploration found.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Complete schedules executed to a terminal (or cut) state.
    pub schedules: u64,
    /// Choices skipped because they were in their node's sleep set.
    pub pruned: u64,
    /// Schedules cut by `max_steps` before quiescing.
    pub truncated: u64,
    /// Deepest schedule seen.
    pub max_depth: usize,
    /// Total scheduler steps executed (including backtrack replays).
    pub steps_executed: u64,
    /// Digests of terminal states (when `collect_digests`).
    pub terminal_digests: BTreeSet<u64>,
    /// True when the whole (reduced) tree was exhausted within budget.
    pub complete: bool,
    /// The last complete schedule explored — a representative
    /// non-trivial interleaving (DFS visits the deterministic drain
    /// first, so later schedules carry the interesting reorderings).
    pub sample: Option<Vec<Step>>,
    /// The first oracle violation and the schedule that reached it.
    pub violation: Option<(Violation, Vec<Step>)>,
}

struct Frame {
    choices: Vec<Step>,
    idx: usize,
    sleep: Vec<Step>,
    explored: Vec<Step>,
}

/// Executes one choice against the cluster. Returns false if the choice
/// was not applicable (stale seq, no timer).
pub fn exec_step<A: Actor>(net: &mut SchedNet<A>, s: Step) -> bool {
    match s {
        Step::Deliver(q) => net.deliver(q),
        Step::Drop(q) => net.drop_msg(q),
        Step::Admit(q) => net.admit(q),
        Step::Timer => net.fire_next_timer(),
    }
}

fn enabled<S: Scenario>(s: &S, built: &S::Built, drops_used: u32) -> Vec<Step> {
    let net = S::net(built);
    let mut v = Vec::new();
    let msgs = net.pending_msgs();
    if !msgs.is_empty() {
        v.extend(msgs.iter().map(|&q| Step::Deliver(q)));
        if drops_used < s.drop_budget() {
            v.extend(msgs.iter().map(|&q| Step::Drop(q)));
        }
        return v;
    }
    // Quiet phase: the round is over (or has not started). Admission and
    // the next timer are the only moves; a joiner's handshake messages
    // then become ordinary delivery choices.
    if s.rounds_done(built) {
        return v; // terminal: explored rounds exhausted, nothing in flight
    }
    v.extend(net.pending_joins().iter().map(|&j| Step::Admit(j)));
    if net.has_timers() {
        v.push(Step::Timer);
    }
    v
}

/// The independence relation described in the module docs.
fn independent<S: Scenario>(s: &S, built: &S::Built, a: Step, b: Step) -> bool {
    use Step::{Admit, Deliver, Drop, Timer};
    match (a, b) {
        (Admit(_) | Timer, _) | (_, Admit(_) | Timer) => false,
        (Deliver(x) | Drop(x), Deliver(y) | Drop(y)) if x == y => false,
        (Drop(_), Deliver(_) | Drop(_)) | (Deliver(_), Drop(_)) => true,
        (Deliver(x), Deliver(y)) => {
            let net = S::net(built);
            let (Some(px), Some(py)) = (net.pending_msg(x), net.pending_msg(y)) else {
                return false;
            };
            px.to != py.to || s.same_target_independent(built, px, py)
        }
    }
}

/// Fails when `tamper` is given to a scenario that cannot honour it.
fn check_tamper<S: Scenario>(s: &S, tamper: Option<TamperSpec>) -> Result<(), String> {
    if tamper.is_some() && !s.accepts_tamper() {
        return Err(format!("preset {} does not accept a tamper", s.name()));
    }
    Ok(())
}

/// Explores the preset's schedule tree depth-first under `matrix`
/// (extended with the preset's baseline pairs; see
/// [`Preset::effective_matrix`]).
///
/// Stops at the first oracle violation (recorded in
/// [`Outcome::violation`] together with the offending schedule), when
/// `max_schedules` is reached, or when the tree is exhausted
/// (`complete = true`).
pub fn explore(
    preset: &Preset,
    matrix: &CommuteMatrix,
    tamper: Option<TamperSpec>,
    cfg: &ExploreConfig,
) -> Outcome {
    explore_scenario(&SingleGroup::new(preset, matrix), tamper, cfg)
        .expect("presets accept a tamper")
}

/// Explores any scenario's schedule tree depth-first (see [`explore`]).
///
/// # Errors
///
/// Returns `Err` when `tamper` is given to a scenario that does not
/// accept one.
pub fn explore_scenario<S: Scenario>(
    s: &S,
    tamper: Option<TamperSpec>,
    cfg: &ExploreConfig,
) -> Result<Outcome, String> {
    check_tamper(s, tamper)?;
    let mut out = Outcome::default();
    let mut built = s.build(tamper);
    let mut path: Vec<Step> = Vec::new();
    let mut frames = vec![Frame {
        choices: enabled(s, &built, 0),
        idx: 0,
        sleep: Vec::new(),
        explored: Vec::new(),
    }];
    let mut drops_used = 0u32;
    // Set when the cluster state has moved past the node the top frame
    // describes (after any backtrack): rebuild + replay before executing.
    let mut dirty = false;

    while out.schedules < cfg.max_schedules {
        let Some(frame) = frames.last_mut() else {
            out.complete = true;
            break;
        };
        if frame.idx >= frame.choices.len() {
            frames.pop();
            match path.pop() {
                Some(c) => {
                    if matches!(c, Step::Drop(_)) {
                        drops_used -= 1;
                    }
                    let parent = frames.last_mut().expect("frames outnumber path by one");
                    parent.explored.push(c);
                    parent.idx += 1;
                    dirty = true;
                    continue;
                }
                None => {
                    out.complete = true;
                    break;
                }
            }
        }
        let c = frame.choices[frame.idx];
        if cfg.reduction && frame.sleep.contains(&c) {
            frame.idx += 1;
            out.pruned += 1;
            cfg.telemetry.mc_pruned();
            continue;
        }
        if dirty {
            built = s.build(tamper);
            for &step in &path {
                assert!(
                    exec_step(S::net_mut(&mut built), step),
                    "replaying {step} of a known prefix"
                );
                out.steps_executed += 1;
            }
            dirty = false;
        }
        // The child's sleep set must be computed *before* executing `c`:
        // independence inspects the messages still pending here.
        let frame = frames.last().expect("just checked");
        let child_sleep: Vec<Step> = frame
            .sleep
            .iter()
            .chain(frame.explored.iter())
            .copied()
            .filter(|&x| x != c && independent(s, &built, x, c))
            .collect();

        assert!(
            exec_step(S::net_mut(&mut built), c),
            "enabled choice {c} must apply"
        );
        out.steps_executed += 1;
        path.push(c);
        if matches!(c, Step::Drop(_)) {
            drops_used += 1;
        }
        out.max_depth = out.max_depth.max(path.len());
        cfg.telemetry.mc_oracle_check();
        if let Some(v) = s.check_step(&built) {
            out.violation = Some((v, path.clone()));
            return Ok(out);
        }

        let next = enabled(s, &built, drops_used);
        let terminal = next.is_empty();
        let cut = !terminal && path.len() >= cfg.max_steps;
        if terminal || cut {
            out.schedules += 1;
            cfg.telemetry.mc_schedule();
            if cut {
                out.truncated += 1;
            }
            if terminal {
                cfg.telemetry.mc_oracle_check();
                if let Some(v) = s.check_terminal(&built) {
                    out.violation = Some((v, path.clone()));
                    return Ok(out);
                }
            }
            if cfg.collect_digests {
                out.terminal_digests.insert(s.state_digest(&built));
            }
            out.sample = Some(path.clone());
            path.pop();
            if matches!(c, Step::Drop(_)) {
                drops_used -= 1;
            }
            let frame = frames.last_mut().expect("frame for the popped step");
            frame.explored.push(c);
            frame.idx += 1;
            dirty = true;
        } else {
            frames.push(Frame {
                choices: next,
                idx: 0,
                sleep: child_sleep,
                explored: Vec::new(),
            });
        }
    }
    Ok(out)
}

/// The result of replaying a schedule file.
#[derive(Debug)]
pub struct ReplayReport {
    /// Steps that applied cleanly.
    pub applied: usize,
    /// Steps skipped because their seq was no longer pending (expected
    /// after minimization; see `schedule` module docs).
    pub skipped: usize,
    /// The first oracle violation, if the schedule reproduces one.
    pub violation: Option<Violation>,
}

/// Replays a schedule against a freshly built cluster, running the step
/// oracles after every applied choice and the terminal oracles if the
/// run quiesces.
///
/// # Errors
///
/// Returns `Err` when the schedule names an unknown preset, or carries a
/// tamper block its preset does not accept.
pub fn replay(sched: &Schedule, matrix: &CommuteMatrix) -> Result<ReplayReport, String> {
    replay_inner(sched, matrix, None).map(|(report, _)| report)
}

/// [`replay`] with a shared trace sink installed on the scheduler driver
/// and every initial machine *before* any step executes, plus a
/// [`StateSummary`] snapshot of each machine at the end.
///
/// Message-stamp allocation is part of the deterministic driver state,
/// so replaying the same schedule reproduces the exact same stamped
/// causal timeline — which is what makes a flight-recorder postmortem
/// bundle replayable and its happens-before check meaningful.
///
/// # Errors
///
/// As [`replay`].
pub fn replay_traced(
    sched: &Schedule,
    matrix: &CommuteMatrix,
    tracer: Arc<dyn Tracer>,
) -> Result<(ReplayReport, Vec<StateSummary>), String> {
    replay_inner(sched, matrix, Some(tracer))
}

fn replay_inner(
    sched: &Schedule,
    matrix: &CommuteMatrix,
    tracer: Option<Arc<dyn Tracer>>,
) -> Result<(ReplayReport, Vec<StateSummary>), String> {
    NamedScenario::by_name(&sched.preset)
        .ok_or_else(|| format!("unknown preset {}", sched.preset))?
        .replay(sched, matrix, tracer)
}

/// Replays `sched` against a freshly built `s` (see [`replay_traced`]):
/// steps whose seq is no longer pending are skipped, the step oracles run
/// after every applied step, and the terminal oracles run if the run ends
/// quiesced (nothing in flight, explored rounds done).
///
/// # Errors
///
/// Returns `Err` when the schedule carries a tamper block `s` does not
/// accept.
pub fn replay_scenario<S: Scenario>(
    s: &S,
    sched: &Schedule,
    tracer: Option<Arc<dyn Tracer>>,
) -> Result<(ReplayReport, Vec<StateSummary>), String> {
    check_tamper(s, sched.tamper)?;
    let mut built = s.build(sched.tamper);
    if let Some(t) = tracer {
        S::net_mut(&mut built).set_tracer(t.clone());
        s.trace_actors(&mut built, &t);
    }
    let mut report = ReplayReport {
        applied: 0,
        skipped: 0,
        violation: None,
    };
    for &step in &sched.steps {
        if !exec_step(S::net_mut(&mut built), step) {
            report.skipped += 1;
            continue;
        }
        report.applied += 1;
        if let Some(v) = s.check_step(&built) {
            report.violation = Some(v);
            return Ok((report, s.summaries(&built)));
        }
    }
    if S::net(&built).pending_msgs().is_empty() && s.rounds_done(&built) {
        report.violation = s.check_terminal(&built);
    }
    Ok((report, s.summaries(&built)))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cfg(reduction: bool) -> ExploreConfig {
        ExploreConfig {
            max_schedules: 1_000_000,
            max_steps: 64,
            reduction,
            collect_digests: true,
            ..ExploreConfig::default()
        }
    }

    /// The reduction must not lose behaviors: on a scenario small enough
    /// to exhaust, the terminal-state digest sets with and without
    /// reduction are identical, while the reduced run visits strictly
    /// fewer schedules. The built-in sudoku preset is shrunk to two
    /// machines so the unreduced tree stays exhaustible.
    #[test]
    fn reduction_preserves_terminal_states_on_sudoku() {
        let p = Preset {
            eager: 2,
            ..*Preset::by_name("sudoku").unwrap()
        };
        let matrix = CommuteMatrix::new();
        let full = explore(&p, &matrix, None, &small_cfg(false));
        let reduced = explore(&p, &matrix, None, &small_cfg(true));
        assert!(full.complete, "unreduced exploration must exhaust");
        assert!(reduced.complete, "reduced exploration must exhaust");
        assert!(full.violation.is_none(), "{:?}", full.violation);
        assert!(reduced.violation.is_none(), "{:?}", reduced.violation);
        assert_eq!(full.terminal_digests, reduced.terminal_digests);
        assert!(
            reduced.schedules < full.schedules,
            "reduction explored {} of {} schedules — no pruning happened",
            reduced.schedules,
            full.schedules
        );
        assert!(reduced.pruned > 0);
    }

    /// The same soundness property on the hybrid preset: async `like`
    /// deliveries are where the new AsyncOp independence arms prune, and
    /// the pruned orders must reach the same terminal digests. Shrunk to
    /// two machines and a lossless network so both trees exhaust.
    #[test]
    fn reduction_preserves_terminal_states_on_hybrid_message_board() {
        let p = Preset {
            eager: 2,
            drop_budget: 0,
            ..*Preset::by_name("message_board").unwrap()
        };
        let matrix = CommuteMatrix::new();
        let full = explore(&p, &matrix, None, &small_cfg(false));
        let reduced = explore(&p, &matrix, None, &small_cfg(true));
        assert!(full.complete, "unreduced exploration must exhaust");
        assert!(reduced.complete, "reduced exploration must exhaust");
        assert!(full.violation.is_none(), "{:?}", full.violation);
        assert!(reduced.violation.is_none(), "{:?}", reduced.violation);
        assert_eq!(full.terminal_digests, reduced.terminal_digests);
        assert!(
            reduced.schedules < full.schedules,
            "reduction explored {} of {} schedules — no pruning happened",
            reduced.schedules,
            full.schedules
        );
        assert!(reduced.pruned > 0);
    }

    /// Replaying any explored prefix is deterministic: the same path
    /// reaches the same digest.
    #[test]
    fn replay_is_deterministic() {
        let s = SingleGroup::new(Preset::by_name("sudoku").unwrap(), &CommuteMatrix::new());
        let mut a = s.build(None);
        let mut b = s.build(None);
        let mut steps = Vec::new();
        for _ in 0..24 {
            let next = enabled(&s, &a, 0);
            let Some(&c) = next.first() else { break };
            assert!(exec_step(&mut a.net, c));
            steps.push(c);
        }
        for &s in &steps {
            assert!(exec_step(&mut b.net, s));
        }
        assert_eq!(
            crate::oracle::state_digest(&a.net),
            crate::oracle::state_digest(&b.net)
        );
    }
}
