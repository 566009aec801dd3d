//! Checking scenarios: the [`Scenario`] trait, the by-name lookup, and
//! the single-group presets.
//!
//! One explorer ([`mod@crate::explore`]) serves two cluster shapes. A
//! [`Scenario`] supplies only what differs between them: how to build the
//! cluster, when the explored rounds are over, whether two messages to the
//! *same* target commute, its oracles, state summaries and digest, its
//! message-loss budget, and whether it accepts a tamper. The two
//! implementations are [`SingleGroup`] (a [`Preset`] bound to its commute
//! matrix, driving bare [`Machine`]s) and
//! [`crate::multigroup::CrossGroup`] (the `cross-group` fixture, driving
//! [`guesstimate_runtime::MultiMachine`] wrappers). [`NamedScenario`] is
//! the lookup `mc --preset`, schedule replay and the regression suite
//! resolve names through.
//!
//! A preset builds a real [`Machine`] cluster under the controlled
//! scheduler ([`SchedNet`]), runs a **deterministic prelude** (membership
//! handshakes and one synchronization that commits the app objects
//! everywhere — uninteresting to explore, identical on every branch),
//! then injects each machine's pending operations. Exploration starts
//! from that state: the first choice is typically the master's sync tick.
//!
//! The workloads are chosen so each preset has both **conflicting**
//! operation pairs (the interesting interleavings the checker must keep)
//! and **commuting** pairs (what the partial-order reduction may prune):
//!
//! | preset | machines | conflict | commute |
//! |---|---|---|---|
//! | `sudoku` | 3 | `update(1,1,1)`;`clear(1,1)` same cell | moves in disjoint rows/cols/boxes |
//! | `auction` | 2 + late join | two first-bids on `lamp` | bids on different items |
//! | `event_planner` | 2, lossy | two joins for the last `party` seat | user registration vs joins |
//! | `message_board` | 3, lossy, hybrid | two posts to `general` (serialized) | async `like`s on all machines |
//!
//! The `auction` preset stages a third machine whose admission is itself
//! a choice point (late join at any explored moment); `event_planner`
//! grants the explorer a message-loss budget, driving the protocol's
//! resend/recovery paths. The `message_board` preset turns on the
//! **hybrid commit path** (`async_commit`): its `like` injections are
//! universal commuters that broadcast as `Msg::AsyncOp` and commit
//! without rounds, while its conflicting posts keep the serialized round
//! path — so the explorer interleaves async arrivals against round
//! flushes, with a loss budget that forces the round-boundary fence's
//! re-piggyback repair.

use std::sync::Arc;

use guesstimate_apps::{auction, event_planner, message_board, sudoku};
use guesstimate_core::{CommuteMatrix, MachineId, ObjectId, OpRegistry, SharedOp};
use guesstimate_net::{Actor, PendingMsg, SchedNet, SimTime, Tracer};
use guesstimate_runtime::commute::wire_ops_commute;
use guesstimate_runtime::{Machine, MachineConfig, Msg, StateSummary, WireEnvelope};

use crate::explore::{explore_scenario, replay_scenario, ExploreConfig, Outcome, ReplayReport};
use crate::multigroup::{CrossGroup, CROSS_GROUP};
use crate::oracle::{check_step, check_terminal, state_digest, Violation};
use crate::schedule::{Schedule, TamperSpec};

/// An in-flight message of a scenario's actor type.
pub type Pending<S> = PendingMsg<<<S as Scenario>::Actor as Actor>::Msg>;

/// What one cluster shape supplies to the shared explorer (see the
/// module docs for the split).
pub trait Scenario {
    /// The protocol actor the scheduler drives.
    type Actor: Actor;
    /// A built cluster: the scheduler plus whatever the oracles read.
    type Built;

    /// The name schedule files and `mc --preset` use.
    fn name(&self) -> &'static str;
    /// Builds the cluster, runs the deterministic prelude and injects the
    /// workload. `tamper` is only ever `Some` when
    /// [`Scenario::accepts_tamper`] holds.
    fn build(&self, tamper: Option<TamperSpec>) -> Self::Built;
    /// The scheduler inside a built cluster.
    fn net(built: &Self::Built) -> &SchedNet<Self::Actor>;
    /// The scheduler inside a built cluster, mutably.
    fn net_mut(built: &mut Self::Built) -> &mut SchedNet<Self::Actor>;
    /// How many messages the explorer may drop per schedule.
    fn drop_budget(&self) -> u32;
    /// Whether a seeded mutation ([`TamperSpec`]) means anything here.
    fn accepts_tamper(&self) -> bool;
    /// True once the explored rounds are over: with nothing in flight,
    /// the state is terminal.
    fn rounds_done(&self, built: &Self::Built) -> bool;
    /// Whether delivering two in-flight messages to the **same** target
    /// in either order reaches the same state. (Deliveries to different
    /// targets are always independent; the explorer decides those.)
    fn same_target_independent(
        &self,
        built: &Self::Built,
        a: &Pending<Self>,
        b: &Pending<Self>,
    ) -> bool;
    /// The oracles run after every applied step.
    fn check_step(&self, built: &Self::Built) -> Option<Violation>;
    /// The oracles run once a schedule quiesces.
    fn check_terminal(&self, built: &Self::Built) -> Option<Violation>;
    /// A digest of the observable cluster state (for soundness tests).
    fn state_digest(&self, built: &Self::Built) -> u64;
    /// Per-machine state summaries for postmortem bundles.
    fn summaries(&self, built: &Self::Built) -> Vec<StateSummary>;
    /// Installs `tracer` on every protocol machine currently admitted.
    fn trace_actors(&self, built: &mut Self::Built, tracer: &Arc<dyn Tracer>);
}

/// Fixture for the `sneaky` negative preset: a two-slot map whose
/// `mirror` method deliberately **under-declares** its footprint — it
/// copies `src` into `dst` while admitting only to touching `dst`. The
/// commute matrix and replay-skip judgments built on that declaration
/// are unsound for it, which is exactly what the witness-containment
/// oracle must report.
mod sneaky {
    use std::collections::BTreeMap;

    use guesstimate_core::{
        args, EffectSpec, Footprint, GState, ObjectId, OpRegistry, RestoreError, SharedOp, Value,
    };

    /// Two integer slots, `src` and `dst`.
    #[derive(Clone, Default, Debug)]
    pub struct Mirror {
        pub m: BTreeMap<String, i64>,
    }

    impl GState for Mirror {
        const TYPE_NAME: &'static str = "Mirror";
        fn snapshot(&self) -> Value {
            Value::Map(
                self.m
                    .iter()
                    .map(|(k, v)| (k.clone(), Value::from(*v)))
                    .collect(),
            )
        }
        fn restore(&mut self, v: &Value) -> Result<(), RestoreError> {
            let Value::Map(m) = v else {
                return Err(RestoreError::shape("map"));
            };
            self.m = m
                .iter()
                .map(|(k, v)| {
                    v.as_i64()
                        .map(|n| (k.clone(), n))
                        .ok_or_else(|| RestoreError::shape("i64 slot"))
                })
                .collect::<Result<_, _>>()?;
            Ok(())
        }
    }

    pub fn register(reg: &mut OpRegistry) {
        reg.register_type::<Mirror>();
        // Honest: `bump(k, d)` reads and writes exactly slot `k`.
        reg.register_with_effects::<Mirror>(
            "bump",
            EffectSpec::new(|a| {
                let Some(k) = a.str(0) else {
                    return Footprint::new();
                };
                Footprint::new().reads([k]).writes([k])
            }),
            |s: &mut Mirror, a| {
                let (Some(k), Some(d)) = (a.str(0), a.i64(1)) else {
                    return false;
                };
                *s.m.entry(k.to_owned()).or_insert(0) += d;
                true
            },
        );
        // Under-declared: actually reads `src`, declares only `dst`.
        reg.register_with_effects::<Mirror>(
            "mirror",
            EffectSpec::new(|_| Footprint::new().reads(["dst"]).writes(["dst"])),
            |s: &mut Mirror, _| {
                let Some(v) = s.m.get("src").copied() else {
                    return false;
                };
                s.m.insert("dst".to_owned(), v);
                true
            },
        );
    }

    pub fn bump(obj: ObjectId, k: &str, d: i64) -> SharedOp {
        SharedOp::primitive(obj, "bump", args![k, d])
    }

    pub fn mirror(obj: ObjectId) -> SharedOp {
        SharedOp::primitive(obj, "mirror", args![])
    }
}

/// Fixture for the `miskeyed` negative preset: an honestly-declared topic
/// board paired with a deliberately **mis-keyed** shard plan. `post(topic,
/// author)` reads and writes exactly `topics/{topic}`, but the hand-built
/// plan routes `post` by its *author* argument — so every post whose
/// author differs from its topic commits into a shard whose key cannot
/// cover the touched path. The runtime's shard containment check (see
/// `guesstimate_runtime::ShardViolation`) must record the escape at the
/// first round commit, and the checker's `ShardEscape` oracle must report
/// it.
mod miskeyed {
    use std::collections::BTreeMap;
    use std::sync::Arc;

    use guesstimate_core::{
        args, ComponentPlan, EffectSpec, Footprint, GState, ObjectId, OpRegistry, PathPattern,
        RestoreError, Routing, ShardPlan, SharedOp, TypePlan, Value,
    };

    /// Per-topic post tallies, snapshotted under a `topics` subtree so
    /// footprint paths have the shape `topics/{topic}`.
    #[derive(Clone, Default, Debug)]
    pub struct Board {
        pub topics: BTreeMap<String, i64>,
    }

    impl GState for Board {
        const TYPE_NAME: &'static str = "KeyedBoard";
        fn snapshot(&self) -> Value {
            Value::Map(
                [(
                    "topics".to_owned(),
                    Value::Map(
                        self.topics
                            .iter()
                            .map(|(k, v)| (k.clone(), Value::from(*v)))
                            .collect(),
                    ),
                )]
                .into(),
            )
        }
        fn restore(&mut self, v: &Value) -> Result<(), RestoreError> {
            let Value::Map(m) = v else {
                return Err(RestoreError::shape("map"));
            };
            let Some(Value::Map(topics)) = m.get("topics") else {
                return Err(RestoreError::shape("topics map"));
            };
            self.topics = topics
                .iter()
                .map(|(k, v)| {
                    v.as_i64()
                        .map(|n| (k.clone(), n))
                        .ok_or_else(|| RestoreError::shape("i64 tally"))
                })
                .collect::<Result<_, _>>()?;
            Ok(())
        }
    }

    pub fn register(reg: &mut OpRegistry) {
        reg.register_type::<Board>();
        // Honest: `post(topic, author)` reads and writes `topics/{topic}`.
        reg.register_with_effects::<Board>(
            "post",
            EffectSpec::new(|a| match a.str(0) {
                Some(t) => Footprint::new()
                    .reads([format!("topics/{t}")])
                    .writes([format!("topics/{t}")]),
                None => Footprint::new(),
            }),
            |s: &mut Board, a| {
                let (Some(t), Some(_author)) = (a.str(0), a.str(1)) else {
                    return false;
                };
                *s.topics.entry(t.to_owned()).or_insert(0) += 1;
                true
            },
        );
    }

    /// The deliberately mis-keyed plan: the component is right
    /// (`topics/{0}`, keyed), but `post` is routed by argument **1** —
    /// the author — where the analysis would have derived argument 0.
    pub fn plan() -> Arc<ShardPlan> {
        let mut tp = TypePlan {
            components: vec![ComponentPlan {
                prefixes: vec![PathPattern::parse("topics/{0}").expect("valid pattern")],
                keyed: true,
            }],
            routes: BTreeMap::new(),
        };
        tp.routes.insert(
            "post".to_owned(),
            Routing::Local {
                component: 0,
                key_arg: Some(1),
            },
        );
        let mut plan = ShardPlan::new();
        plan.types.insert(Board::TYPE_NAME.to_owned(), tp);
        Arc::new(plan)
    }

    pub fn post(obj: ObjectId, topic: &str, author: &str) -> SharedOp {
        SharedOp::primitive(obj, "post", args![topic, author])
    }
}

/// One checking scenario.
#[derive(Debug, Clone, Copy)]
pub struct Preset {
    /// Preset name (also selects the application).
    pub name: &'static str,
    /// Machines present from the start (machine 0 is the master).
    pub eager: u32,
    /// Stage one additional machine whose admission is a choice point.
    pub late_join: bool,
    /// Synchronization rounds to explore after injection.
    pub rounds: u64,
    /// How many messages the explorer may drop per schedule.
    pub drop_budget: u32,
    /// Enable the hybrid commit path (`async_commit`): eligible
    /// injections broadcast as `Msg::AsyncOp` and commit without rounds.
    pub hybrid: bool,
    /// One-line description for `mc --list`.
    pub blurb: &'static str,
}

/// All built-in presets.
pub const PRESETS: &[Preset] = &[
    Preset {
        name: "sudoku",
        eager: 3,
        late_join: false,
        rounds: 2,
        drop_budget: 0,
        hybrid: false,
        blurb: "3 machines; same-cell update/clear conflict vs disjoint-unit moves",
    },
    Preset {
        name: "auction",
        eager: 2,
        late_join: true,
        rounds: 2,
        drop_budget: 0,
        hybrid: false,
        blurb: "2 machines + late joiner; dueling first-bids vs cross-item bids",
    },
    Preset {
        name: "event_planner",
        eager: 2,
        late_join: false,
        rounds: 3,
        drop_budget: 2,
        hybrid: false,
        blurb: "2 machines, lossy network; last-seat race plus recovery paths",
    },
    Preset {
        name: "message_board",
        eager: 3,
        late_join: false,
        rounds: 2,
        drop_budget: 2,
        hybrid: true,
        blurb: "3 machines, lossy, hybrid commit; async likes vs serialized same-topic posts",
    },
];

/// Negative-test preset: a deliberately **under-declared** workload the
/// witness-containment oracle must catch (its `mirror` injection reads
/// `src` while declaring only `dst`; see the `sneaky` module). Not listed in
/// [`PRESETS`] — the positive suites iterate those and this one violates
/// by design — but reachable through [`Preset::by_name`], so `mc
/// --preset sneaky` and schedule replays resolve it. Built with
/// `witness_reads` on and `witness_assert` off: escapes are *recorded*
/// on the machine for the oracle to report (and ddmin to shrink) instead
/// of aborting mid-delivery.
pub const SNEAKY: Preset = Preset {
    name: "sneaky",
    eager: 2,
    late_join: false,
    rounds: 2,
    drop_budget: 0,
    hybrid: false,
    blurb: "negative test: under-declared read the witness oracle must catch",
};

/// Negative-test preset: an honestly-declared workload under a
/// deliberately **mis-keyed** shard plan (its `post` route keys by the
/// author argument instead of the topic; see the `miskeyed` module).
/// Hidden from [`PRESETS`] like [`SNEAKY`] — it violates by design — but
/// reachable through [`Preset::by_name`], so `mc --preset miskeyed` and
/// schedule replays resolve it. Built with `witness_assert` off: shard
/// escapes are *recorded* on the machine for the `ShardEscape` oracle to
/// report (and ddmin to shrink) instead of aborting mid-delivery.
pub const MISKEYED: Preset = Preset {
    name: "miskeyed",
    eager: 2,
    late_join: false,
    rounds: 2,
    drop_budget: 0,
    hybrid: false,
    blurb: "negative test: mis-keyed shard plan the shard-escape oracle must catch",
};

/// The hidden negative presets: each violates an oracle by design, so
/// their schedules must keep reproducing a violation.
pub const NEGATIVE: &[Preset] = &[SNEAKY, MISKEYED];

impl Preset {
    /// Looks up a preset by name ([`PRESETS`] plus the [`NEGATIVE`] ones).
    pub fn by_name(name: &str) -> Option<&'static Preset> {
        PRESETS.iter().chain(NEGATIVE).find(|p| p.name == name)
    }

    /// Total machines once the staged joiner (if any) is admitted.
    pub fn total_machines(&self) -> u32 {
        self.eager + u32::from(self.late_join)
    }

    fn registry(&self) -> OpRegistry {
        let mut reg = OpRegistry::new();
        match self.name {
            "sudoku" => sudoku::register(&mut reg),
            "auction" => auction::register(&mut reg),
            "event_planner" => event_planner::register(&mut reg),
            "message_board" => message_board::register(&mut reg),
            "sneaky" => sneaky::register(&mut reg),
            "miskeyed" => miskeyed::register(&mut reg),
            other => unreachable!("unknown preset {other}"),
        }
        reg
    }

    /// The commute matrix the scenario runs under: the caller's matrix
    /// (typically loaded from an `analyze --json` archive via `mc
    /// --matrix`) extended with the preset's baseline pairs. The hybrid
    /// preset needs `like`'s rows present even when no archive is given —
    /// an empty matrix would silently classify every method as serialized
    /// and the async path would never run. The inserted pairs mirror what
    /// `analyze` validates for `MessageBoard`; inserting an
    /// already-present pair is a no-op, so an archive matrix passes
    /// through unchanged.
    pub fn effective_matrix(&self, given: &CommuteMatrix) -> CommuteMatrix {
        let mut m = given.clone();
        if self.name == "message_board" {
            for other in ["like", "post", "create_topic"] {
                m.insert("MessageBoard", "like", other);
            }
        }
        m
    }

    /// Creates the app object on the master and issues the ops that the
    /// deterministic prelude must commit before exploration starts.
    /// Returns the object id and the number of ops issued (incl. the
    /// creation).
    fn prelude_ops(&self, master: &mut Machine) -> (ObjectId, u64) {
        match self.name {
            "sudoku" => (master.create_instance(sudoku::Sudoku::new()), 1),
            "auction" => {
                let obj = master.create_instance(auction::Auction::new());
                for op in [
                    auction::ops::list_item(obj, "lamp", "seller", 10, 5),
                    auction::ops::list_item(obj, "rug", "seller", 5, 1),
                ] {
                    assert!(
                        master.issue(op).expect("prelude issue"),
                        "prelude op failed"
                    );
                }
                (obj, 3)
            }
            "event_planner" => {
                let obj = master.create_instance(event_planner::EventPlanner::with_quota(2));
                for op in [
                    event_planner::ops::register_user(obj, "ann", "pw"),
                    event_planner::ops::register_user(obj, "bob", "pw"),
                    event_planner::ops::create_event(obj, "party", 1),
                    event_planner::ops::create_event(obj, "dinner", 2),
                ] {
                    assert!(
                        master.issue(op).expect("prelude issue"),
                        "prelude op failed"
                    );
                }
                (obj, 5)
            }
            "message_board" => {
                let obj = master.create_instance(message_board::MessageBoard::new());
                assert!(
                    master
                        .issue(message_board::ops::create_topic(obj, "general"))
                        .expect("prelude issue"),
                    "prelude op failed"
                );
                (obj, 2)
            }
            "sneaky" => {
                let obj = master.create_instance(sneaky::Mirror {
                    m: [("src".to_owned(), 1), ("dst".to_owned(), 0)].into(),
                });
                (obj, 1)
            }
            "miskeyed" => (master.create_instance(miskeyed::Board::default()), 1),
            other => unreachable!("unknown preset {other}"),
        }
    }

    /// The per-machine operations injected after the prelude — the
    /// workload whose interleavings are explored.
    fn injections(&self, obj: ObjectId) -> Vec<(u32, SharedOp)> {
        match self.name {
            "sudoku" => vec![
                // Machine 0: a same-cell conflicting pair (also the
                // seeded-mutation target: swapping their commit order is
                // observable).
                (0, sudoku::ops::update(obj, 1, 1, 1)),
                (0, sudoku::ops::clear(obj, 1, 1)),
                // Machine 1: moves in disjoint rows/columns/boxes — their
                // batch commutes with everything machine 0 flushes.
                (1, sudoku::ops::update(obj, 5, 5, 3)),
                (1, sudoku::ops::update(obj, 9, 9, 5)),
                // Machine 2: another disjoint-unit move (row 6, col 2,
                // box 3) — its batch commutes with both of the above.
                (2, sudoku::ops::update(obj, 6, 2, 7)),
            ],
            "auction" => vec![
                // Dueling first-bids at the reserve: the commit order
                // decides the winner, the loser's bid fails.
                (0, auction::ops::bid(obj, "lamp", "ann", 10)),
                (1, auction::ops::bid(obj, "lamp", "bob", 10)),
                // A bid on the other item commutes with both.
                (1, auction::ops::bid(obj, "rug", "carol", 5)),
            ],
            "event_planner" => vec![
                // The last-seat race for `party` (capacity 1).
                (0, event_planner::ops::join(obj, "ann", "party")),
                (1, event_planner::ops::join(obj, "bob", "party")),
                // A fresh registration touches only `users/carol`.
                (0, event_planner::ops::register_user(obj, "carol", "pw")),
            ],
            "message_board" => vec![
                // Two posts to the same topic: serialized, and the commit
                // order decides the thread order — the conflict the round
                // path must keep total.
                (0, message_board::ops::post(obj, "general", "ann", "hi")),
                (2, message_board::ops::post(obj, "general", "bob", "yo")),
                // Blind likes: universal commuters that take the async
                // path. Machine 1 issues two so same-sender FIFO ordering
                // (a shared arrival slot the reduction must not split) is
                // exercised alongside cross-sender reorderings.
                (0, message_board::ops::like(obj, "general")),
                (1, message_board::ops::like(obj, "general")),
                (1, message_board::ops::like(obj, "general")),
            ],
            "sneaky" => vec![
                // Honest slot bump on the master.
                (0, sneaky::bump(obj, "src", 1)),
                // The under-declared mirror: its hidden read of `src` is
                // recorded the moment machine 1 issues it, so the witness
                // oracle fires on the very first explored step.
                (1, sneaky::mirror(obj)),
            ],
            "miskeyed" => vec![
                // Honest posts. The mis-keyed plan routes each by its
                // author, so the first round commit lands `topics/news`
                // in shard `KeyedBoard:0/ann` (and `topics/sport` in
                // `KeyedBoard:0/bob`) — escapes the shard containment
                // check records on every machine.
                (0, miskeyed::post(obj, "news", "ann")),
                (1, miskeyed::post(obj, "sport", "bob")),
            ],
            other => unreachable!("unknown preset {other}"),
        }
    }

    /// Builds the cluster, runs the deterministic prelude, injects the
    /// workload, stages the late joiner, and installs the tamper hook.
    ///
    /// # Panics
    ///
    /// Panics if the prelude fails to converge — that is a bug in either
    /// the protocol or the harness, not an explorable behavior.
    pub fn build(&self, matrix: &CommuteMatrix, tamper: Option<TamperSpec>) -> Built {
        let registry = Arc::new(self.registry());
        // Timeout spacing mirrors deployment ratios (tick < join retry <
        // stall) so timer-only phases preserve protocol behavior; absolute
        // values are irrelevant under the controlled clock.
        let mut cfg = MachineConfig::default()
            .with_sync_period(SimTime::from_millis(100))
            .with_join_retry(SimTime::from_millis(300))
            .with_stall_timeout(SimTime::from_millis(500))
            .with_record_history(true)
            .with_paranoid_checks(true)
            .with_async_commit(self.hybrid)
            .with_commute_matrix(self.effective_matrix(matrix))
            // The negative presets record escapes instead of asserting, so
            // an oracle (not a mid-delivery debug_assert) is what reports
            // them: `sneaky` additionally probes for undeclared reads.
            .with_witness_reads(self.name == "sneaky")
            .with_witness_assert(!matches!(self.name, "sneaky" | "miskeyed"));
        if self.name == "miskeyed" {
            // The deliberately wrong plan the shard containment check —
            // and the checker's ShardEscape oracle — must catch.
            cfg = cfg.with_shard_plan(miskeyed::plan());
        }

        let mut net: SchedNet<Machine> = SchedNet::new();
        net.add_machine(
            MachineId::new(0),
            Machine::new_master(MachineId::new(0), registry.clone(), cfg.clone()),
        );
        for i in 1..self.eager {
            net.add_machine(
                MachineId::new(i),
                Machine::new_member(MachineId::new(i), registry.clone(), cfg.clone()),
            );
        }
        let (obj, prelude_ops) =
            self.prelude_ops(net.actor_mut(MachineId::new(0)).expect("master added"));

        // Deterministic prelude: always deliver the lowest-seq message,
        // fire a timer only when quiet. Every branch of the exploration
        // replays this identically, so it contributes no choice points.
        let mut guard = 0u32;
        loop {
            guard += 1;
            assert!(guard < 100_000, "prelude failed to converge");
            if let Some(&seq) = net.pending_msgs().first() {
                net.deliver(seq);
                continue;
            }
            let settled = (0..self.eager).all(|i| {
                let m = net.actor(MachineId::new(i)).expect("member");
                m.in_cohort() && m.completed_len() == prelude_ops as usize
            });
            if settled {
                break;
            }
            assert!(net.fire_next_timer(), "prelude stalled with no timers");
        }

        // Injections for machines beyond `eager` are dropped so tests can
        // shrink a preset (fewer machines → exhaustible tree) without
        // re-specifying its workload.
        for (machine, op) in self
            .injections(obj)
            .into_iter()
            .filter(|&(m, _)| m < self.eager)
        {
            let id = MachineId::new(machine);
            let issued = if self.hybrid {
                // The hybrid issue path may broadcast an AsyncOp, so it
                // needs a network context; the resulting in-flight
                // messages become exploration choices like any other.
                let mut ok = None;
                assert!(
                    net.call(id, |m, ctx| {
                        ok = Some(
                            m.issue_hybrid(op, None, ctx)
                                .expect("injection references known objects"),
                        );
                    }),
                    "machine exists"
                );
                ok.expect("call ran")
            } else {
                net.actor_mut(id)
                    .expect("machine exists")
                    .issue(op)
                    .expect("injection references known objects")
            };
            assert!(issued, "injected op failed at issue");
        }

        let join_choice = self.late_join.then(|| {
            let id = MachineId::new(self.eager);
            net.stage_join(id, Machine::new_member(id, registry.clone(), cfg.clone()))
        });

        if let Some(t) = tamper {
            let victim = MachineId::new(t.victim);
            let (i, j) = t.swap;
            let mut seen = 0u64;
            net.set_tamper(Box::new(move |_seq, _from, to, msg: &mut Msg| {
                if to != victim {
                    return false;
                }
                let Msg::Ops { ops, .. } = msg else {
                    return false;
                };
                seen += 1;
                if seen != t.nth || i == j || i >= ops.len() || j >= ops.len() {
                    return false;
                }
                // Swap the *ids*: receivers key a round's batch by id and
                // apply in id order, so this inverts the victim's commit
                // order for the two operations. The batch is shared behind
                // an Arc; clone-on-write so only this delivery is corrupted.
                let ops = std::sync::Arc::make_mut(ops);
                let a = ops[i].id;
                ops[i].id = ops[j].id;
                ops[j].id = a;
                true
            }));
        }

        let base_rounds = net
            .actor(MachineId::new(0))
            .expect("master")
            .stats()
            .syncs_seen;
        Built {
            net,
            registry,
            base_rounds,
            join_choice,
        }
    }
}

/// A built scenario, ready for exploration or replay.
#[derive(Debug)]
pub struct Built {
    /// The cluster under the controlled scheduler.
    pub net: SchedNet<Machine>,
    /// The shared operation registry (also used by oracles).
    pub registry: Arc<OpRegistry>,
    /// The master's sync count at the end of the prelude; exploration
    /// targets `base_rounds + preset.rounds`.
    pub base_rounds: u64,
    /// The staged joiner's choice seq, if the preset has a late join.
    pub join_choice: Option<u64>,
}

/// A [`Preset`] bound to the commute matrix it runs under: the
/// single-group [`Scenario`].
#[derive(Debug, Clone)]
pub struct SingleGroup {
    /// The preset.
    pub preset: Preset,
    /// The preset's [`Preset::effective_matrix`], resolved once so the
    /// reduction and the machines' own classification read the same pairs.
    pub matrix: CommuteMatrix,
}

impl SingleGroup {
    /// Binds `preset` to `given` extended with the preset's baseline pairs.
    pub fn new(preset: &Preset, given: &CommuteMatrix) -> Self {
        SingleGroup {
            preset: *preset,
            matrix: preset.effective_matrix(given),
        }
    }
}

impl Scenario for SingleGroup {
    type Actor = Machine;
    type Built = Built;

    fn name(&self) -> &'static str {
        self.preset.name
    }

    fn build(&self, tamper: Option<TamperSpec>) -> Built {
        self.preset.build(&self.matrix, tamper)
    }

    fn net(built: &Built) -> &SchedNet<Machine> {
        &built.net
    }

    fn net_mut(built: &mut Built) -> &mut SchedNet<Machine> {
        &mut built.net
    }

    fn drop_budget(&self) -> u32 {
        self.preset.drop_budget
    }

    fn accepts_tamper(&self) -> bool {
        true
    }

    fn rounds_done(&self, built: &Built) -> bool {
        let master = built.net.actor(MachineId::new(0)).expect("master");
        master.stats().syncs_seen >= built.base_rounds + self.preset.rounds
    }

    /// Same-target deliveries commute iff both are `Msg::Ops` batches of
    /// the same round from different senders, or `Msg::AsyncOp`s from
    /// different senders, or one of each from different senders — and
    /// every cross-pair of the envelopes they apply commutes per
    /// [`wire_ops_commute`] (see `explore`'s module docs).
    fn same_target_independent(
        &self,
        built: &Built,
        px: &Pending<Self>,
        py: &Pending<Self>,
    ) -> bool {
        let Some(target) = built.net.actor(px.to) else {
            return false;
        };
        let type_of = |oid| target.object_type(oid).map(str::to_owned);
        let commute = |ea: &WireEnvelope, eb: &WireEnvelope| {
            wire_ops_commute(&built.registry, &self.matrix, &type_of, &ea.op, &eb.op)
        };
        // Envelopes a message applies (or stages) at the receiver:
        // serialized batch plus the piggybacked async window for Ops,
        // the single envelope for a standalone AsyncOp.
        match (&px.msg, &py.msg) {
            (
                Msg::Ops {
                    round: ra,
                    machine: sa,
                    ops: oa,
                    asyncs: aa,
                },
                Msg::Ops {
                    round: rb,
                    machine: sb,
                    ops: ob,
                    asyncs: ab,
                },
            ) => {
                if ra != rb || sa == sb {
                    return false;
                }
                let ea = oa.iter().chain(aa.iter().map(|(_, e)| e));
                ea.clone().all(|a| {
                    ob.iter()
                        .chain(ab.iter().map(|(_, e)| e))
                        .all(|b| commute(a, b))
                })
            }
            (Msg::AsyncOp { env: ea, .. }, Msg::AsyncOp { env: eb, .. }) => {
                // Same-sender AsyncOps share an arrival-order slot.
                px.from != py.from && commute(ea, eb)
            }
            (
                Msg::AsyncOp { env, .. },
                Msg::Ops {
                    machine,
                    ops,
                    asyncs,
                    ..
                },
            )
            | (
                Msg::Ops {
                    machine,
                    ops,
                    asyncs,
                    ..
                },
                Msg::AsyncOp { env, .. },
            ) => {
                // The async op must commute with both the ops the
                // round will apply and the piggybacked window; a flush
                // from the async op's own sender shares its slot.
                let sender = if matches!(&px.msg, Msg::AsyncOp { .. }) {
                    px.from
                } else {
                    py.from
                };
                sender != *machine
                    && ops
                        .iter()
                        .chain(asyncs.iter().map(|(_, e)| e))
                        .all(|b| commute(env, b))
            }
            _ => false,
        }
    }

    fn check_step(&self, built: &Built) -> Option<Violation> {
        check_step(&built.net, self.preset.hybrid)
    }

    fn check_terminal(&self, built: &Built) -> Option<Violation> {
        check_terminal(&built.net, &built.registry, self.preset.total_machines())
    }

    fn state_digest(&self, built: &Built) -> u64 {
        state_digest(&built.net)
    }

    fn summaries(&self, built: &Built) -> Vec<StateSummary> {
        built
            .net
            .members()
            .into_iter()
            .filter_map(|id| built.net.actor(id))
            .map(Machine::state_summary)
            .collect()
    }

    fn trace_actors(&self, built: &mut Built, tracer: &Arc<dyn Tracer>) {
        for id in built.net.members() {
            if let Some(m) = built.net.actor_mut(id) {
                m.set_tracer(tracer.clone());
            }
        }
    }
}

/// A scenario looked up by name: what `mc --preset`, schedule replay and
/// the regression suite resolve.
#[derive(Debug, Clone, Copy)]
pub enum NamedScenario {
    /// A single-group [`Preset`] (bound to a matrix when run).
    Single(Preset),
    /// The multi-group `cross-group` fixture.
    Cross(CrossGroup),
}

impl NamedScenario {
    /// Resolves [`PRESETS`], the [`NEGATIVE`] presets and [`CROSS_GROUP`].
    pub fn by_name(name: &str) -> Option<Self> {
        if name == CROSS_GROUP {
            return Some(NamedScenario::Cross(CrossGroup::default()));
        }
        Preset::by_name(name).map(|p| NamedScenario::Single(*p))
    }

    /// The scenario's name.
    pub fn name(&self) -> &'static str {
        match self {
            NamedScenario::Single(p) => p.name,
            NamedScenario::Cross(_) => CROSS_GROUP,
        }
    }

    /// True for the [`NEGATIVE`] presets, which violate by design.
    pub fn is_negative(&self) -> bool {
        NEGATIVE.iter().any(|p| p.name == self.name())
    }

    /// Overrides the rounds explored beyond the prelude.
    pub fn set_rounds(&mut self, rounds: u64) {
        match self {
            NamedScenario::Single(p) => p.rounds = rounds,
            NamedScenario::Cross(c) => c.rounds = rounds,
        }
    }

    /// Explores the scenario (see [`explore_scenario`]).
    ///
    /// # Errors
    ///
    /// Returns `Err` when `tamper` is given to a scenario that does not
    /// accept one.
    pub fn explore(
        &self,
        matrix: &CommuteMatrix,
        tamper: Option<TamperSpec>,
        cfg: &ExploreConfig,
    ) -> Result<Outcome, String> {
        match self {
            NamedScenario::Single(p) => explore_scenario(&SingleGroup::new(p, matrix), tamper, cfg),
            NamedScenario::Cross(c) => explore_scenario(c, tamper, cfg),
        }
    }

    /// Replays `sched` (see [`replay_scenario`]).
    ///
    /// # Errors
    ///
    /// Returns `Err` when the schedule carries a tamper block the
    /// scenario does not accept.
    pub fn replay(
        &self,
        sched: &Schedule,
        matrix: &CommuteMatrix,
        tracer: Option<Arc<dyn Tracer>>,
    ) -> Result<(ReplayReport, Vec<StateSummary>), String> {
        match self {
            NamedScenario::Single(p) => {
                replay_scenario(&SingleGroup::new(p, matrix), sched, tracer)
            }
            NamedScenario::Cross(c) => replay_scenario(c, sched, tracer),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_build_and_quiesce() {
        for p in PRESETS {
            let built = p.build(&CommuteMatrix::new(), None);
            // Serialized injections stay pending until a round; only the
            // hybrid preset's async broadcasts may already be in flight.
            for &seq in &built.net.pending_msgs() {
                let msg = &built.net.pending_msg(seq).unwrap().msg;
                assert!(
                    p.hybrid && matches!(msg, Msg::AsyncOp { .. }),
                    "{}: unexpected in-flight {msg:?}",
                    p.name
                );
            }
            assert!(built.net.has_timers(), "{}: tick must be armed", p.name);
            assert_eq!(built.join_choice.is_some(), p.late_join, "{}", p.name);
            for i in 0..p.eager {
                let m = built.net.actor(MachineId::new(i)).unwrap();
                assert!(m.check_guess_invariant(), "{} machine {i}", p.name);
            }
            // Injections are pending, not yet committed.
            let master = built.net.actor(MachineId::new(0)).unwrap();
            assert!(master.pending_len() > 0, "{}", p.name);
        }
    }

    #[test]
    fn hybrid_preset_commits_asyncs_at_issue() {
        let p = Preset::by_name("message_board").unwrap();
        let built = p.build(&CommuteMatrix::new(), None);
        // Machine 0's injections: one serialized post (pending) and one
        // async like (committed at issue, on top of the 2 prelude ops).
        let m0 = built.net.actor(MachineId::new(0)).unwrap();
        assert_eq!(m0.completed_len(), 3);
        assert_eq!(m0.completed_serialized().len(), 2);
        assert_eq!(m0.pending_len(), 1);
        // Machine 1 issued two async likes and nothing serialized.
        let m1 = built.net.actor(MachineId::new(1)).unwrap();
        assert_eq!(m1.completed_len(), 4);
        assert_eq!(m1.pending_len(), 0);
        // Each like broadcast to the two peers: 3 likes * 2 = 6 in flight.
        assert_eq!(built.net.pending_msgs().len(), 6);
    }

    #[test]
    fn build_is_deterministic() {
        let p = Preset::by_name("auction").unwrap();
        let a = p.build(&CommuteMatrix::new(), None);
        let b = p.build(&CommuteMatrix::new(), None);
        assert_eq!(a.base_rounds, b.base_rounds);
        assert_eq!(a.join_choice, b.join_choice);
        assert_eq!(
            a.net.actor(MachineId::new(0)).unwrap().committed_digest(),
            b.net.actor(MachineId::new(0)).unwrap().committed_digest()
        );
    }
}
