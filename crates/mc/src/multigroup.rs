//! Model checking the multi-group synchronizer: the `cross-group` preset.
//!
//! The single-group presets drive bare [`guesstimate_runtime::Machine`]s;
//! this module drives [`MultiMachine`] wrappers — one full round-protocol
//! instance per sync group behind every node — through the same
//! controlled scheduler, exploring the interleavings that only exist in
//! multi-group mode: two groups' rounds racing each other, a
//! cross-routed operation's `CrossSubmit` hop, the coordinator's marker
//! issue, per-group marker commits landing in either order, and the
//! fence-buffered replay after the coordinated round resolves.
//!
//! The fixture is the minimal two-component type: `XPair` holds fields
//! `a` and `b` whose hand-built [`ShardPlan`] splits them into sync
//! groups `XPair:0` and `XPair:1`; `bump_a`/`bump_b` route locally while
//! `mix` spans both components and must take the coordinated round.
//! Three fully-overlapping nodes issue one conflicting local op per
//! group plus one `mix`, and exploration starts with the `CrossSubmit`
//! still in flight.
//!
//! ## Oracles
//!
//! Per step, on every node and hosted group: the §3 guess invariant, the
//! ≤3-executions bound, empty witness/shard containment logs, **per-group
//! prefix agreement** (any two nodes' completion sequences for the *same
//! group* must be prefix-ordered — the paper's total order, instantiated
//! per group), and per-group committed-digest equality — gated on both
//! nodes having resolved equally many coordinated rounds with the group
//! unfenced, because resolution rewrites committed component copies
//! outside the group's own round. The **cross-round oracle** checks that
//! no node resolves a coordinated round more than once per submission
//! and that any two nodes that have resolved equally many agree on the
//! rolling `(xid, result)` digest. At terminal states every node must
//! have resolved every submitted cross operation, hold no fenced group,
//! and agree on the merged committed digest.
//!
//! [`CrossGroup`] is this fixture's [`Scenario`]: the shared explorer
//! ([`mod@crate::explore`]) drives it exactly as it drives the single-group
//! presets. Its reduction is conservative — deliveries to distinct nodes
//! are independent (the explorer's generic rule; a delivery only mutates
//! its target wrapper), every same-node pair is dependent — and it has no
//! loss budget and no staged joiner. Schedules use the standard
//! [`crate::Schedule`] file format under the preset name [`CROSS_GROUP`],
//! so `mc --replay`, ddmin minimization, flight-recorder postmortems and
//! the checked-in regression suite work unchanged.

use std::collections::BTreeMap;
use std::sync::Arc;

use guesstimate_core::{
    args, ComponentPlan, EffectSpec, Footprint, GState, MachineId, OpRegistry, PathPattern,
    RestoreError, Routing, ShardPlan, SharedOp, TypePlan, Value,
};
use guesstimate_net::{SchedNet, SimTime, Tracer};
use guesstimate_runtime::multigroup::{vid, GroupId, GroupTable, MultiClusterSpec, MultiMachine};
use guesstimate_runtime::{MachineConfig, StateSummary};

use crate::explore::{explore_scenario, ExploreConfig, Outcome};
use crate::oracle::{check_machine, digest_machines, Violation};
use crate::scenario::{Pending, Scenario};
use crate::schedule::TamperSpec;

/// The multi-group preset's name in schedule files and `mc --preset`.
pub const CROSS_GROUP: &str = "cross-group";

/// Nodes in the fixture cluster (full overlap: each hosts both groups).
const NODES: u32 = 3;
/// Cross operations the workload submits (the cross oracle's target).
const CROSS_OPS: u64 = 1;

/// The `cross-group` [`Scenario`]: the fixture cluster plus the knob
/// `mc --rounds` turns.
#[derive(Debug, Clone, Copy)]
pub struct CrossGroup {
    /// Per-group rounds to explore beyond the prelude.
    pub rounds: u64,
}

impl Default for CrossGroup {
    fn default() -> Self {
        CrossGroup { rounds: 2 }
    }
}

/// The two-component fixture type: independent fields `a` and `b`.
#[derive(Clone, Default, Debug, PartialEq)]
pub struct XPair {
    /// Component 0 (sync group `XPair:0`).
    pub a: i64,
    /// Component 1 (sync group `XPair:1`).
    pub b: i64,
}

impl GState for XPair {
    const TYPE_NAME: &'static str = "XPair";
    fn snapshot(&self) -> Value {
        let mut m = BTreeMap::new();
        m.insert("a".to_owned(), Value::from(self.a));
        m.insert("b".to_owned(), Value::from(self.b));
        Value::Map(m)
    }
    fn restore(&mut self, v: &Value) -> Result<(), RestoreError> {
        let Value::Map(m) = v else {
            return Err(RestoreError::shape("map"));
        };
        self.a = m.get("a").and_then(Value::as_i64).unwrap_or(0);
        self.b = m.get("b").and_then(Value::as_i64).unwrap_or(0);
        Ok(())
    }
}

fn registry() -> OpRegistry {
    let mut r = OpRegistry::new();
    r.register_type::<XPair>();
    r.register_with_effects::<XPair>(
        "bump_a",
        EffectSpec::new(|_| Footprint::new().reads(["a"]).writes(["a"])),
        |p: &mut XPair, a| {
            let Some(d) = a.i64(0) else { return false };
            p.a += d;
            true
        },
    );
    r.register_with_effects::<XPair>(
        "bump_b",
        EffectSpec::new(|_| Footprint::new().reads(["b"]).writes(["b"])),
        |p: &mut XPair, a| {
            let Some(d) = a.i64(0) else { return false };
            p.b += d;
            true
        },
    );
    r.register_with_effects::<XPair>(
        "mix",
        EffectSpec::new(|_| Footprint::new().reads(["a", "b"]).writes(["a", "b"])),
        |p: &mut XPair, a| {
            let Some(d) = a.i64(0) else { return false };
            p.a += d;
            p.b += p.a;
            true
        },
    );
    r
}

/// The hand-built two-component plan (what the shard-partition analysis
/// would derive for `XPair`'s honest effect declarations).
pub fn plan() -> Arc<ShardPlan> {
    let mut tp = TypePlan {
        components: vec![
            ComponentPlan {
                prefixes: vec![PathPattern::parse("a").expect("valid pattern")],
                keyed: false,
            },
            ComponentPlan {
                prefixes: vec![PathPattern::parse("b").expect("valid pattern")],
                keyed: false,
            },
        ],
        routes: BTreeMap::new(),
    };
    tp.routes.insert(
        "bump_a".to_owned(),
        Routing::Local {
            component: 0,
            key_arg: None,
        },
    );
    tp.routes.insert(
        "bump_b".to_owned(),
        Routing::Local {
            component: 1,
            key_arg: None,
        },
    );
    tp.routes.insert("mix".to_owned(), Routing::CrossShard);
    let mut plan = ShardPlan::new();
    plan.types.insert(XPair::TYPE_NAME.to_owned(), tp);
    Arc::new(plan)
}

/// The built cross-group scenario, ready for exploration or replay.
#[derive(Debug)]
pub struct CrossBuilt {
    /// The multi-group cluster under the controlled scheduler.
    pub net: SchedNet<MultiMachine>,
    /// Each group master's sync count at the end of the prelude;
    /// exploration targets `base + rounds` per group.
    pub base_rounds: BTreeMap<GroupId, u64>,
}

/// Builds the cross-group cluster, runs the deterministic prelude
/// (joins of both groups plus the fixture object's per-group creates),
/// and injects the workload: one conflicting local op per group and one
/// cross-routed `mix` whose `CrossSubmit` is in flight when exploration
/// starts.
///
/// # Panics
///
/// Panics if the prelude fails to converge — a harness or protocol bug,
/// not an explorable behavior.
fn build() -> CrossBuilt {
    let table = Arc::new(GroupTable::from_plan(plan()));
    let spec = MultiClusterSpec::full_overlap(NODES, Arc::clone(&table));
    let registry = Arc::new(registry());
    let cfg = MachineConfig::default()
        .with_sync_period(SimTime::from_millis(100))
        .with_join_retry(SimTime::from_millis(300))
        .with_stall_timeout(SimTime::from_millis(500))
        .with_paranoid_checks(true)
        .with_shard_plan(plan());

    let mut net: SchedNet<MultiMachine> = SchedNet::new();
    for i in 0..NODES {
        net.add_machine(MachineId::new(i), spec.build_node(i, &registry, &cfg));
    }

    let mut obj = None;
    net.call(MachineId::new(0), |mm, ctx| {
        obj = Some(mm.create_instance(XPair::default(), ctx));
    });
    let obj = obj.expect("node 0 exists");

    // Deterministic prelude: always deliver the lowest-seq message, fire
    // a timer only when quiet, until every node has joined both groups
    // and committed both per-group creates.
    let num_groups = table.num_groups() as u64;
    let mut guard = 0u32;
    loop {
        guard += 1;
        assert!(guard < 100_000, "cross-group prelude failed to converge");
        if let Some(&seq) = net.pending_msgs().first() {
            net.deliver(seq);
            continue;
        }
        let settled = (0..NODES).all(|i| {
            let mm = net.actor(MachineId::new(i)).expect("node added");
            mm.all_joined() && mm.committed_total() == num_groups
        });
        if settled {
            break;
        }
        assert!(net.fire_next_timer(), "cross-group prelude stalled");
    }

    // The workload: one local conflict seed per group, plus the cross op.
    net.call(MachineId::new(1), |mm, ctx| {
        mm.issue(SharedOp::primitive(obj, "bump_a", args![2]), None, ctx)
            .expect("bump_a routes to a hosted group");
    });
    net.call(MachineId::new(2), |mm, ctx| {
        mm.issue(SharedOp::primitive(obj, "bump_b", args![3]), None, ctx)
            .expect("bump_b routes to a hosted group");
    });
    net.call(MachineId::new(1), |mm, ctx| {
        mm.issue(SharedOp::primitive(obj, "mix", args![1]), None, ctx)
            .expect("mix cross-submits");
    });

    let node0 = net.actor(MachineId::new(0)).expect("node 0");
    let base_rounds = node0
        .group_ids()
        .into_iter()
        .map(|g| (g, node0.group(g).expect("hosted").stats().syncs_seen))
        .collect();
    CrossBuilt { net, base_rounds }
}

/// The per-step oracles described in the module docs.
pub fn check_step(net: &SchedNet<MultiMachine>) -> Option<Violation> {
    let ids = net.members();
    for &id in &ids {
        let mm = net.actor(id).expect("member");
        for g in mm.group_ids() {
            if let Some(v) = check_machine(vid(id, g), mm.group(g).expect("hosted")) {
                return Some(v);
            }
        }
        if mm.cross_resolved() > CROSS_OPS {
            return Some(Violation::CrossRound {
                detail: format!(
                    "node {id} resolved {} coordinated rounds for {CROSS_OPS} submissions",
                    mm.cross_resolved()
                ),
            });
        }
    }
    for (i, &a) in ids.iter().enumerate() {
        for &b in &ids[i + 1..] {
            let na = net.actor(a).expect("member");
            let nb = net.actor(b).expect("member");
            for g in na.group_ids() {
                let (Some(ma), Some(mb)) = (na.group(g), nb.group(g)) else {
                    continue;
                };
                let (ca, cb) = (ma.completed_ops(), mb.completed_ops());
                let n = ca.len().min(cb.len());
                if ca[..n] != cb[..n] {
                    return Some(Violation::CompletedPrefix {
                        a: vid(a, g),
                        b: vid(b, g),
                    });
                }
                // A resolution rewrites committed component copies
                // outside the group's round, so digests are comparable
                // only between nodes at the same resolution count with
                // the group unfenced on both.
                let comparable = ca.len() == cb.len()
                    && na.cross_resolved() == nb.cross_resolved()
                    && !na.frozen_groups().contains(&g)
                    && !nb.frozen_groups().contains(&g);
                if comparable && ma.committed_digest() != mb.committed_digest() {
                    return Some(Violation::CommittedDigest {
                        a: vid(a, g),
                        b: vid(b, g),
                    });
                }
            }
            if na.cross_resolved() == nb.cross_resolved() && na.cross_digest() != nb.cross_digest()
            {
                return Some(Violation::CrossRound {
                    detail: format!(
                        "nodes {a} and {b} resolved {} coordinated rounds with different \
                         (xid, result) digests",
                        na.cross_resolved()
                    ),
                });
            }
        }
    }
    None
}

/// The terminal oracles: every cross operation resolved exactly once on
/// every node, no fences left, and merged committed state agreeing
/// cluster-wide.
pub fn check_terminal(net: &SchedNet<MultiMachine>) -> Option<Violation> {
    let ids = net.members();
    for &id in &ids {
        let mm = net.actor(id).expect("member");
        if mm.cross_resolved() != CROSS_OPS {
            return Some(Violation::CrossRound {
                detail: format!(
                    "terminal state: node {id} resolved {} of {CROSS_OPS} coordinated rounds",
                    mm.cross_resolved()
                ),
            });
        }
        if !mm.frozen_groups().is_empty() {
            return Some(Violation::CrossRound {
                detail: format!(
                    "terminal state: node {id} still fences {:?}",
                    mm.frozen_groups()
                ),
            });
        }
    }
    let d0 = net.actor(ids[0]).expect("member").merged_committed_digest();
    for &id in &ids[1..] {
        if net.actor(id).expect("member").merged_committed_digest() != d0 {
            return Some(Violation::CrossRound {
                detail: format!(
                    "terminal state: node {id} disagrees on the merged committed digest"
                ),
            });
        }
    }
    None
}

/// Explores the cross-group preset's schedule tree depth-first with the
/// default [`CrossGroup`] knobs.
pub fn explore(cfg: &ExploreConfig) -> Outcome {
    explore_scenario(&CrossGroup::default(), None, cfg).expect("no tamper given")
}

impl Scenario for CrossGroup {
    type Actor = MultiMachine;
    type Built = CrossBuilt;

    fn name(&self) -> &'static str {
        CROSS_GROUP
    }

    fn build(&self, _tamper: Option<TamperSpec>) -> CrossBuilt {
        build()
    }

    fn net(built: &CrossBuilt) -> &SchedNet<MultiMachine> {
        &built.net
    }

    fn net_mut(built: &mut CrossBuilt) -> &mut SchedNet<MultiMachine> {
        &mut built.net
    }

    /// Lossless: drops would change the explored tree (and the
    /// throughput numbers tracked for it), so they wait for the fault
    /// choice points that come with a budget per scenario.
    fn drop_budget(&self) -> u32 {
        0
    }

    fn accepts_tamper(&self) -> bool {
        false
    }

    /// Every group's master has run its target rounds, every node has
    /// resolved every submitted cross operation, and no fences remain.
    fn rounds_done(&self, built: &CrossBuilt) -> bool {
        let node0 = built.net.actor(MachineId::new(0)).expect("node 0");
        let rounds_ok = built.base_rounds.iter().all(|(&g, &base)| {
            node0
                .group(g)
                .is_some_and(|m| m.stats().syncs_seen >= base + self.rounds)
        });
        rounds_ok
            && (0..NODES).all(|i| {
                let mm = built.net.actor(MachineId::new(i)).expect("node");
                mm.cross_resolved() == CROSS_OPS && mm.frozen_groups().is_empty()
            })
    }

    /// Always dependent: no commute argument covers a wrapper's per-node
    /// fence and cross-round state.
    fn same_target_independent(
        &self,
        _: &CrossBuilt,
        _: &Pending<Self>,
        _: &Pending<Self>,
    ) -> bool {
        false
    }

    fn check_step(&self, built: &CrossBuilt) -> Option<Violation> {
        check_step(&built.net)
    }

    fn check_terminal(&self, built: &CrossBuilt) -> Option<Violation> {
        check_terminal(&built.net)
    }

    fn state_digest(&self, built: &CrossBuilt) -> u64 {
        let nodes: Vec<_> = built
            .net
            .members()
            .into_iter()
            .map(|id| (id, built.net.actor(id).expect("member")))
            .collect();
        let cross: Vec<_> = nodes
            .iter()
            .map(|(_, mm)| (mm.cross_resolved(), mm.cross_digest()))
            .collect();
        digest_machines(
            nodes.iter().flat_map(|&(id, mm)| {
                mm.group_ids()
                    .into_iter()
                    .map(move |g| (vid(id, g), mm.group(g).expect("hosted")))
            }),
            cross,
        )
    }

    /// Ordered by node, then group.
    fn summaries(&self, built: &CrossBuilt) -> Vec<StateSummary> {
        let mut v = Vec::new();
        for id in built.net.members() {
            let mm = built.net.actor(id).expect("member");
            for g in mm.group_ids() {
                v.push(mm.group(g).expect("hosted").state_summary());
            }
        }
        v
    }

    /// Traces every hosted group's inner machine.
    fn trace_actors(&self, built: &mut CrossBuilt, tracer: &Arc<dyn Tracer>) {
        for id in built.net.members() {
            let mm = built.net.actor_mut(id).expect("member");
            for g in mm.group_ids() {
                mm.group_mut(g)
                    .expect("hosted")
                    .set_tracer(Arc::clone(tracer));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::Schedule;

    /// Drive the built scenario to quiescence deterministically, checking
    /// every oracle along the road — the multi-group analog of the
    /// single-group `oracles_pass_on_deterministic_runs`.
    #[test]
    fn oracles_pass_on_the_deterministic_drain() {
        let scenario = CrossGroup::default();
        let mut built = scenario.build(None);
        let mut guard = 0u32;
        loop {
            guard += 1;
            assert!(guard < 100_000, "drain failed to converge");
            assert_eq!(check_step(&built.net), None);
            if let Some(&seq) = built.net.pending_msgs().first() {
                built.net.deliver(seq);
                continue;
            }
            if scenario.rounds_done(&built) {
                break;
            }
            assert!(built.net.fire_next_timer(), "drain stalled");
        }
        assert_eq!(check_terminal(&built.net), None);
        // The cross op resolved everywhere and the fences are gone.
        for i in 0..NODES {
            let mm = built.net.actor(MachineId::new(i)).unwrap();
            assert_eq!(mm.cross_resolved(), CROSS_OPS, "node {i}");
        }
    }

    /// A small bounded exploration stays oracle-clean, the reduction
    /// actually prunes, and terminal digests are collected.
    #[test]
    fn bounded_exploration_is_clean() {
        let cfg = ExploreConfig {
            max_schedules: 300,
            collect_digests: true,
            ..ExploreConfig::default()
        };
        let out = explore(&cfg);
        assert!(out.violation.is_none(), "{:?}", out.violation);
        assert_eq!(out.schedules, 300);
        assert!(out.pruned > 0, "the delivery reduction must prune");
        assert!(!out.terminal_digests.is_empty());
    }

    /// Replay round-trips through the schedule file format.
    #[test]
    fn sample_schedule_replays_clean() {
        let cfg = ExploreConfig {
            max_schedules: 50,
            ..ExploreConfig::default()
        };
        let out = explore(&cfg);
        let steps = out.sample.expect("explored schedules");
        let sched = Schedule {
            preset: CROSS_GROUP.to_owned(),
            tamper: None,
            steps,
        };
        let reparsed = Schedule::from_json(&sched.to_json()).expect("well-formed");
        let report = crate::explore::replay(&reparsed, &guesstimate_core::CommuteMatrix::new())
            .expect("known preset");
        assert!(report.violation.is_none(), "{:?}", report.violation);
        assert!(report.applied > 0);
    }

    /// `rounds` is a real knob: the first explored schedule is the
    /// deterministic drain, which runs longer with more rounds to cover.
    #[test]
    fn rounds_extend_the_explored_window() {
        let cfg = ExploreConfig {
            max_schedules: 1,
            max_steps: 1000,
            ..ExploreConfig::default()
        };
        let three = explore_scenario(&CrossGroup { rounds: 3 }, None, &cfg).expect("no tamper");
        let two = explore(&cfg);
        assert!(three.violation.is_none(), "{:?}", three.violation);
        assert_eq!((two.truncated, three.truncated), (0, 0), "drains quiesce");
        assert!(
            three.max_depth > two.max_depth,
            "3 rounds: depth {}, 2 rounds: depth {}",
            three.max_depth,
            two.max_depth
        );
    }

    /// A tamper block targets single-group `Msg::Ops` batches; replaying
    /// one against this fixture fails instead of silently ignoring it.
    #[test]
    fn replay_rejects_a_tamper_block() {
        let sched = Schedule {
            preset: CROSS_GROUP.to_owned(),
            tamper: Some(TamperSpec {
                victim: 1,
                nth: 1,
                swap: (0, 1),
            }),
            steps: vec![crate::Step::Timer],
        };
        let err = crate::explore::replay(&sched, &guesstimate_core::CommuteMatrix::new())
            .expect_err("cross-group cannot honour a tamper");
        assert!(err.contains(CROSS_GROUP), "{err}");
    }

    /// The checked-in regression schedule replays with a flight recorder
    /// on the driver and every inner machine, and the bundle it dumps
    /// carries a causal timeline that `validate_postmortem` accepts.
    #[test]
    fn traced_replay_records_a_causal_timeline() {
        use guesstimate_obs::{validate_postmortem, FlightRecorder};

        let text = include_str!("../../../tests/schedules/cross-group-coordinated-round.json");
        let sched = Schedule::from_json(text).expect("well-formed");
        let recorder = Arc::new(FlightRecorder::new(4096));
        let (report, states) = crate::explore::replay_traced(
            &sched,
            &guesstimate_core::CommuteMatrix::new(),
            recorder.clone(),
        )
        .expect("known preset");
        assert!(report.violation.is_none(), "{:?}", report.violation);
        assert!(!recorder.is_empty(), "no trace events recorded");
        assert_eq!(states.len(), 6, "3 nodes x 2 groups");
        let bundle =
            validate_postmortem(&recorder.dump_json("test", &states)).expect("bundle validates");
        assert!(bundle.events > 0);
        assert!(bundle.hb_ok, "happens-before violations in the replay");
    }
}
