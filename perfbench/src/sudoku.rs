//! `sudoku_paper`: the paper's §7 setting, scaled up.
//!
//! Eight machines in serialized rounds (LAN latency, 250 ms sync period)
//! share a lobby of live Sudoku grids. Every user makes Poisson move events:
//! pick a grid, read it on the own machine's guesstimated state, make a
//! random legal move. A grid with no legal move left is replaced by a fresh
//! one that the user creates. Two machines stall for 30 s each, as in
//! Figure 5, so the run goes through stall → removal → restart → rejoin
//! twice. A stalled machine is a hung one: its user stops two seconds
//! before the hang (so nothing is left unflushed on it) and resumes once
//! the machine has been restarted and is back in the cohort; those events
//! are counted as not attempted.

use std::sync::{Arc, Mutex};

use guesstimate_apps::sudoku::{self, Sudoku};
use guesstimate_core::{MachineId, ObjectId, OpRegistry};
use guesstimate_net::{FaultPlan, LatencyModel, NetConfig, SimNet, SimTime, StallWindow};
use guesstimate_runtime::{Machine, MachineConfig};
use rand::Rng;

use crate::gauge::Clock;
use crate::mc;
use crate::probe::{Probe, Traced};
use crate::sim::{
    check_converged, drive, net_delta, poisson_arrivals, run_until_ready, track, window_samples,
    Ledger, Rep, Tally,
};

const MACHINES: u32 = 8;
const GRIDS: usize = 256;
/// Move events per machine per virtual second.
const RATE: f64 = 4.0;
const WINDOW: SimTime = SimTime::from_secs(900);
const DRAIN: SimTime = SimTime::from_secs(30);
/// Virtual time at which the measured window opens.
const T0: SimTime = SimTime::from_secs(40);
const STALL: SimTime = SimTime::from_secs(30);
/// How long before its machine hangs a user stops playing.
const AWAY_LEAD: SimTime = SimTime::from_secs(2);

fn stalls() -> Vec<StallWindow> {
    let third = SimTime::from_micros(WINDOW.as_micros() / 3);
    [(3, T0 + third), (6, T0 + third + third)]
        .into_iter()
        .map(|(m, from)| StallWindow::new(MachineId::new(m), from, from + STALL))
        .collect()
}

pub fn run(seed: u64, tracing: bool) -> Rep {
    let mut rep = Rep::default();
    let setup = Clock::start();
    let mut reg = OpRegistry::new();
    sudoku::register(&mut reg);
    let reg = Arc::new(reg);
    let cfg = MachineConfig::default()
        .with_sync_period(SimTime::from_millis(250))
        .with_stall_timeout(SimTime::from_secs(6))
        .with_join_retry(SimTime::from_millis(700))
        .with_commute_skip(true);
    let faults = stalls()
        .into_iter()
        .fold(FaultPlan::new(), FaultPlan::with_stall);
    let netcfg = NetConfig::lan(seed)
        .with_latency(LatencyModel::lan_ms(30))
        .with_faults(faults);
    let probe = Probe::new(tracing);
    let mut net: SimNet<Traced<Machine>> = SimNet::new(netcfg);
    for i in 0..MACHINES {
        let id = MachineId::new(i);
        let m = if i == 0 {
            Machine::new_master(id, reg.clone(), cfg.clone())
        } else {
            Machine::new_member(id, reg.clone(), cfg.clone())
        };
        net.add_machine(id, Traced::new(m, probe.clone()));
    }
    if let Err(e) = run_until_ready(&mut net, SimTime::from_secs(30), Machine::in_cohort) {
        rep.violations.push(e);
        return rep;
    }
    let mut slots: Vec<ObjectId> = {
        let master = &mut net.actor_mut(MachineId::new(0)).expect("master").inner;
        (0..GRIDS)
            .map(|_| master.create_instance(sudoku::example_puzzle()))
            .collect()
    };
    net.run_until(T0);
    rep.setup = setup.finish();

    let t_end = T0 + WINDOW;
    let drain_to = t_end + DRAIN;
    let arrivals = poisson_arrivals(seed, MACHINES, RATE, T0, t_end);
    let away = stalls();
    let ledger = Arc::new(Mutex::new(Ledger::default()));
    let mut tally = Tally::default();
    let net0 = net.metrics();
    probe.take();
    rep.window = drive(&mut net, &arrivals, drain_to, |net, a| {
        let id = MachineId::new(a.machine);
        let m = &mut net.actor_mut(id).expect("machines never leave").inner;
        // Away from just before the hang until the restarted app is back.
        let away = away
            .iter()
            .any(|w| w.machine == id && a.at + AWAY_LEAD >= w.from && m.stats().restarts == 0);
        if away || !m.in_cohort() {
            tally.not_attempted += 1;
            return;
        }
        let mut rng = a.rng();
        let slot = rng.gen_range(0..GRIDS);
        let board = slots[slot];
        let moves = tally.read(|| m.read::<Sudoku, _>(board, Sudoku::candidate_moves));
        match moves {
            Some(moves) if !moves.is_empty() => {
                let (r, c, v) = moves[rng.gen_range(0..moves.len())];
                let done = track(&ledger, &probe, a.at);
                tally.issue(&ledger, || {
                    m.issue_at(sudoku::ops::update(board, r, c, v), Some(done), a.at)
                });
            }
            Some(_) => {
                // Solved or stuck: this user opens a fresh grid in the slot.
                slots[slot] = m.create_instance(sudoku::example_puzzle());
                tally.not_attempted += 1;
            }
            // The grid's creation has not reached this machine yet.
            None => tally.not_attempted += 1,
        }
    });
    rep.callbacks = probe.take();
    rep.tally = tally;
    rep.net = net_delta(net.metrics(), net0);
    rep.ledger = ledger
        .lock()
        .expect("ledger lock poisoned")
        .summarize(drain_to);
    let machines: Vec<&Machine> = net
        .members()
        .into_iter()
        .filter_map(|i| net.actor(i).map(|w| &w.inner))
        .collect();
    for m in &machines {
        rep.replicas.add(m);
    }
    rep.sync = window_samples(machines[0], T0, t_end);
    rep.digest = check_converged(machines.iter().copied(), &mut rep.violations);
    if rep.replicas.restarts != 2 {
        rep.violations.push(format!(
            "expected 2 stall restarts, saw {}",
            rep.replicas.restarts
        ));
    }
    rep.check_common();
    rep.mc = mc::run(&["sudoku", "event_planner"], &mut rep.violations);
    rep
}
