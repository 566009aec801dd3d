//! `suite_sharded`: four apps on eight full-overlap multi-group nodes.
//!
//! Set-up derives, through `analysis`, the shard plan and commute matrix of
//! MicroBlog, MessageBoard, Auction and CarPool, and builds one
//! `MultiMachine` per node hosting every sync group. Users post, like,
//! heart, bid and take car-pool seats; `board` spans CarPool components, so
//! those ops go through coordinated cross rounds. Reads are merged reads.
//! Live `Telemetry` is installed, as an instrumented deployment would have.
//! This is the only workload that runs `multigroup`, cross rounds,
//! `analysis` at set-up and `telemetry`.

use std::sync::{Arc, Mutex};

use guesstimate_analysis::harness::{
    analyze_auction, analyze_carpool, analyze_message_board, analyze_microblog,
};
use guesstimate_analysis::{matrices_from_json, report_to_json};
use guesstimate_apps::auction::{self, Auction};
use guesstimate_apps::carpool::{self, CarPool};
use guesstimate_apps::message_board::{self, MessageBoard};
use guesstimate_apps::microblog::{self, MicroBlog};
use guesstimate_core::{MachineId, ObjectId, OpRegistry, ShardPlan, SharedOp};
use guesstimate_mc::CROSS_GROUP;
use guesstimate_net::{LatencyModel, NetConfig, SimNet, SimTime};
use guesstimate_runtime::multigroup::{GroupTable, IssueOutcome, MultiClusterSpec, MultiMachine};
use guesstimate_runtime::{Machine, MachineConfig};
use guesstimate_telemetry::Telemetry;
use rand::Rng;

use crate::gauge::Clock;
use crate::mc;
use crate::probe::{Probe, Traced};
use crate::sim::{
    check_converged, drive, net_delta, poisson_arrivals, run_until_ready, thread_cpu, track,
    window_samples, Ledger, Rep, Tally,
};

const NODES: u32 = 8;
const USERS_PER_NODE: u32 = 4;
const TOPICS: usize = 4;
const ITEMS: usize = 8;
const VEHICLES: usize = 8;
const EVENTS: usize = 2;
/// Events per node per virtual second.
const RATE: f64 = 3.0;
const WINDOW: SimTime = SimTime::from_secs(240);
const DRAIN: SimTime = SimTime::from_secs(15);

struct Objects {
    blog: ObjectId,
    board: ObjectId,
    auction: ObjectId,
    pool: ObjectId,
}

fn handle(node: u32, k: u32) -> String {
    format!("u{node}_{k}")
}

/// Shard plan and commute matrix of the four apps, as `analysis` derives
/// and validates them.
fn derive() -> (Arc<ShardPlan>, guesstimate_core::CommuteMatrix) {
    let apps = [
        analyze_microblog(),
        analyze_message_board(),
        analyze_auction(),
        analyze_carpool(),
    ];
    let mut plan = ShardPlan::new();
    for a in &apps {
        plan.types
            .insert(a.report.type_name.clone(), a.derive_shard_plan());
    }
    let reports: Vec<_> = apps.into_iter().map(|a| a.report).collect();
    let matrix = matrices_from_json(&report_to_json(&reports))
        .expect("analysis emits a readable matrix archive");
    (Arc::new(plan), matrix)
}

fn issue_plain(net: &mut SimNet<Traced<MultiMachine>>, op: SharedOp) -> bool {
    let mut ok = false;
    net.call(MachineId::new(0), |w, ctx| {
        ok = matches!(
            w.inner.issue(op, None, ctx),
            Ok(IssueOutcome::Local(true) | IssueOutcome::CrossPending)
        );
    });
    ok
}

fn create<T: guesstimate_core::GState>(
    net: &mut SimNet<Traced<MultiMachine>>,
    init: T,
) -> ObjectId {
    let mut id = None;
    net.call(MachineId::new(0), |w, ctx| {
        id = Some(w.inner.create_instance(init, ctx));
    });
    id.expect("node 0 is a member")
}

pub fn run(seed: u64, tracing: bool, telemetry: Telemetry) -> Rep {
    let mut rep = Rep::default();
    let mut setup = Clock::start();
    let analysis = thread_cpu();
    let (plan, matrix) = derive();
    rep.analysis = thread_cpu() - analysis;
    setup.lap();
    let mut reg = OpRegistry::new();
    microblog::register(&mut reg);
    message_board::register(&mut reg);
    auction::register(&mut reg);
    carpool::register(&mut reg);
    let reg = Arc::new(reg);
    let cfg = MachineConfig::default()
        .with_sync_period(SimTime::from_millis(250))
        .with_stall_timeout(SimTime::from_secs(3))
        .with_join_retry(SimTime::from_millis(700))
        .with_commute_matrix(matrix)
        .with_async_commit(true)
        .with_shard_plan(plan.clone());
    let spec = MultiClusterSpec::full_overlap(NODES, Arc::new(GroupTable::from_plan(plan)));
    let probe = Probe::new(tracing);
    let mut net: SimNet<Traced<MultiMachine>> =
        SimNet::new(NetConfig::lan(seed).with_latency(LatencyModel::lan_ms(30)));
    for i in 0..NODES {
        let mut node = spec.build_node(i, &reg, &cfg);
        node.set_telemetry(telemetry.clone());
        net.add_machine(MachineId::new(i), Traced::new(node, probe.clone()));
    }
    if let Err(e) = run_until_ready(&mut net, SimTime::from_secs(30), MultiMachine::all_joined) {
        rep.violations.push(e);
        return rep;
    }
    let objs = Objects {
        blog: create(&mut net, MicroBlog::new()),
        board: create(&mut net, MessageBoard::new()),
        auction: create(&mut net, Auction::new()),
        pool: create(&mut net, CarPool::new()),
    };
    let t = net.now() + SimTime::from_secs(2);
    net.run_until(t);
    let mut seeding = Vec::new();
    for n in 0..NODES {
        for k in 0..USERS_PER_NODE {
            seeding.push(microblog::ops::register(objs.blog, &handle(n, k)));
        }
    }
    for k in 0..TOPICS {
        seeding.push(message_board::ops::create_topic(
            objs.board,
            &format!("t{k}"),
        ));
    }
    for k in 0..ITEMS {
        seeding.push(auction::ops::list_item(
            objs.auction,
            &format!("item{k}"),
            "house",
            10,
            1,
        ));
    }
    for k in 0..VEHICLES {
        let event = format!("e{}", k % EVENTS);
        seeding.push(carpool::ops::add_vehicle(
            objs.pool,
            &format!("v{k}"),
            3,
            &event,
        ));
    }
    for op in seeding {
        if !issue_plain(&mut net, op) {
            rep.violations
                .push("a set-up op failed at issue".to_owned());
        }
    }
    let t0 = net.now() + SimTime::from_secs(5);
    net.run_until(t0);
    rep.setup = setup.finish();

    let t_end = t0 + WINDOW;
    let drain_to = t_end + DRAIN;
    let arrivals = poisson_arrivals(seed, NODES, RATE, t0, t_end);
    let ledger = Arc::new(Mutex::new(Ledger::default()));
    let mut tally = Tally::default();
    let net0 = net.metrics();
    probe.take();
    rep.window = drive(&mut net, &arrivals, drain_to, |net, a| {
        let id = MachineId::new(a.machine);
        let mut rng = a.rng();
        let me = handle(a.machine, rng.gen_range(0..USERS_PER_NODE));
        let other = handle(rng.gen_range(0..NODES), rng.gen_range(0..USERS_PER_NODE));
        let topic = format!("t{}", rng.gen_range(0..TOPICS));
        let item = format!("item{}", rng.gen_range(0..ITEMS));
        let vehicle_no = rng.gen_range(0..VEHICLES);
        let vehicle = format!("v{vehicle_no}");
        let event = format!("e{}", vehicle_no % EVENTS);
        let pick: f64 = rng.gen_range(0.0..1.0);
        let node = &net.actor(id).expect("nodes never leave").inner;
        let op = if pick < 0.15 {
            microblog::ops::heart(objs.blog, &other)
        } else if pick < 0.25 {
            microblog::ops::post(objs.blog, &me, &format!("post {:x}", a.seed))
        } else if pick < 0.40 {
            message_board::ops::post(objs.board, &topic, &me, "hello")
        } else if pick < 0.50 {
            message_board::ops::like(objs.board, &topic)
        } else if pick < 0.60 {
            let next =
                tally.read(|| node.read::<Auction, _>(objs.auction, |au| au.min_next_bid(&item)));
            match next.flatten() {
                Some(amount) => auction::ops::bid(objs.auction, &item, &me, amount),
                None => {
                    tally.not_attempted += 1;
                    return;
                }
            }
        } else if pick < 0.68 {
            let seat = tally.read(|| {
                node.read::<CarPool, _>(objs.pool, |p| {
                    (p.ride_of(&me, &event), p.free_seats(&vehicle).unwrap_or(0))
                })
            });
            match seat {
                Some((Some(ride), _)) => carpool::ops::disembark(objs.pool, &me, &ride),
                Some((None, free)) if free > 0 => carpool::ops::board(objs.pool, &me, &vehicle),
                _ => {
                    tally.not_attempted += 1;
                    return;
                }
            }
        } else {
            let seen = match rng.gen_range(0..4) {
                0 => tally.read(|| node.read::<MicroBlog, _>(objs.blog, |b| b.timeline(&me).len())),
                1 => tally.read(|| node.read::<MessageBoard, _>(objs.board, |b| b.post_count())),
                2 => tally.read(|| {
                    node.read::<Auction, _>(objs.auction, |au| {
                        au.best_bid(&item).map_or(0, |b| b.1 as usize)
                    })
                }),
                _ => tally.read(|| {
                    node.read::<CarPool, _>(objs.pool, |p| {
                        p.free_seats(&vehicle).unwrap_or(0) as usize
                    })
                }),
            };
            if seen.is_none() {
                tally.not_attempted += 1;
            }
            return;
        };
        let done = track(&ledger, &probe, a.at);
        let mut cross = false;
        net.call(id, |w, ctx| {
            probe.tick(ctx.now());
            tally.issue(&ledger, || {
                w.inner.issue(op, Some(done), ctx).map(|o| match o {
                    IssueOutcome::Local(ok) => ok,
                    IssueOutcome::CrossPending => {
                        cross = true;
                        true
                    }
                })
            });
        });
        tally.cross += u64::from(cross);
    });
    rep.callbacks = probe.take();
    rep.tally = tally;
    rep.net = net_delta(net.metrics(), net0);
    rep.ledger = ledger
        .lock()
        .expect("ledger lock poisoned")
        .summarize(drain_to);

    let nodes: Vec<&MultiMachine> = net
        .members()
        .into_iter()
        .filter_map(|i| net.actor(i).map(|w| &w.inner))
        .collect();
    let groups = nodes[0].group_ids();
    for g in &groups {
        let replicas: Vec<&Machine> = nodes.iter().filter_map(|n| n.group(*g)).collect();
        for m in &replicas {
            rep.replicas.add(m);
        }
        rep.sync.extend(window_samples(replicas[0], t0, t_end));
        check_converged(replicas, &mut rep.violations);
    }
    rep.digest = nodes[0].merged_committed_digest() ^ nodes[0].cross_digest().rotate_left(1);
    for n in &nodes {
        if n.merged_committed_digest() != nodes[0].merged_committed_digest() {
            rep.violations
                .push(format!("node {} merged digest differs", n.node()));
        }
        if n.cross_digest() != nodes[0].cross_digest()
            || n.cross_resolved() != nodes[0].cross_resolved()
        {
            rep.violations.push(format!(
                "node {} resolved a different cross history",
                n.node()
            ));
        }
        if !n.frozen_groups().is_empty() {
            rep.violations
                .push(format!("node {} has unresolved cross ops", n.node()));
        }
    }
    if rep.tally.cross == 0 {
        rep.violations.push("no op took a cross round".to_owned());
    }
    rep.check_common();
    rep.mc = mc::run(
        &["auction", "message_board", CROSS_GROUP],
        &mut rep.violations,
    );
    rep
}
