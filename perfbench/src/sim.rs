//! The open-loop machinery shared by the simulated workloads: seeded
//! arrivals, the per-operation ledger, the timed event loop and the
//! end-of-run summaries and correctness checks.

use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use guesstimate_core::CompletionFn;
use guesstimate_net::{Actor, NetMetrics, SimNet, SimTime};
use guesstimate_runtime::{Machine, SyncSample};
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

use crate::gauge::{Clock, Timed};
use crate::mc::McRep;
use crate::probe::{Busy, CallbackTimes, Probe, Traced};

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("thread_cpu calls clock_gettime with the 64-bit Linux timespec layout");

/// CPU time this thread has run so far. The simulation runs on one thread,
/// so this is its cost without the time a shared host kept it waiting for
/// a processor.
pub fn thread_cpu() -> Duration {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on the 64-bit Linux targets this benchmark runs on).
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_THREAD_CPUTIME_ID) failed");
    Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32)
}

/// One user event: at `at`, the user on `machine` acts, drawing its
/// choices from `seed`.
#[derive(Debug, Clone, Copy)]
pub struct Arrival {
    pub at: SimTime,
    pub machine: u32,
    pub seed: u64,
}

impl Arrival {
    pub fn rng(&self) -> StdRng {
        StdRng::seed_from_u64(self.seed)
    }
}

/// Independent Poisson streams, one per machine, at `rate` events per
/// virtual second each, merged in time order.
pub fn poisson_arrivals(
    seed: u64,
    machines: u32,
    rate: f64,
    from: SimTime,
    until: SimTime,
) -> Vec<Arrival> {
    let mean_us = 1e6 / rate;
    let mut out = Vec::new();
    for m in 0..machines {
        // One independent stream per machine.
        let mut rng = StdRng::seed_from_u64(seed ^ (u64::from(m) + 1).rotate_right(16));
        let mut t = from.as_micros();
        loop {
            let u: f64 = rng.gen_range(f64::EPSILON..1.0);
            t += ((-u.ln() * mean_us) as u64).max(1);
            if t >= until.as_micros() {
                break;
            }
            out.push(Arrival {
                at: SimTime::from_micros(t),
                machine: m,
                seed: rng.next_u64(),
            });
        }
    }
    out.sort_by_key(|a| (a.at, a.machine));
    out
}

/// Issue time and commit outcome of every operation a user issued.
#[derive(Debug, Default)]
pub struct Ledger {
    issued_us: Vec<u64>,
    committed: Vec<Option<(u64, bool)>>,
}

pub type SharedLedger = Arc<Mutex<Ledger>>;

/// Opens a ledger entry for an op due at `due` and returns the completion
/// routine that closes it with the commit's virtual time and result.
pub fn track(ledger: &SharedLedger, probe: &Arc<Probe>, due: SimTime) -> CompletionFn {
    let idx = {
        let mut l = ledger.lock().expect("ledger lock poisoned");
        l.issued_us.push(due.as_micros());
        l.committed.push(None);
        l.issued_us.len() - 1
    };
    let ledger = Arc::clone(ledger);
    let probe = Arc::clone(probe);
    Box::new(move |ok| {
        ledger.lock().expect("ledger lock poisoned").committed[idx] = Some((probe.now_us(), ok));
    })
}

/// What the ledger says once the run has drained.
#[derive(Debug, Default, Clone)]
pub struct LedgerSummary {
    pub committed: u64,
    pub conflicts: u64,
    pub uncommitted: u64,
    /// Commit lag of every op, due time to commit; an op still
    /// uncommitted at the drain deadline counts with its lag so far.
    pub lags_us: Vec<u64>,
    pub outage_us: u64,
}

impl Ledger {
    /// Drops the entry opened last: its issue call did not enqueue the op.
    pub fn cancel_last(&mut self) {
        self.issued_us.pop();
        self.committed.pop();
    }

    pub fn summarize(&self, drain_to: SimTime) -> LedgerSummary {
        let end = drain_to.as_micros();
        let mut s = LedgerSummary::default();
        // (commit time, issue time), uncommitted ops closing at the deadline.
        let mut spans: Vec<(u64, u64)> = Vec::with_capacity(self.issued_us.len());
        for (i, c) in self.issued_us.iter().zip(&self.committed) {
            match c {
                Some((t, ok)) => {
                    s.committed += 1;
                    s.conflicts += u64::from(!ok);
                    s.lags_us.push(t.saturating_sub(*i));
                    spans.push((*t, *i));
                }
                None => {
                    s.uncommitted += 1;
                    s.lags_us.push(end.saturating_sub(*i));
                    spans.push((end, *i));
                }
            }
        }
        s.lags_us.sort_unstable();
        // Outage: between consecutive commit instants a < b, the service is
        // out from the first moment some op was waiting (issued before b,
        // committed at b or later) until b.
        spans.sort_unstable();
        let mut min_issue_from = vec![u64::MAX; spans.len() + 1];
        for k in (0..spans.len()).rev() {
            min_issue_from[k] = min_issue_from[k + 1].min(spans[k].1);
        }
        let mut prev: Option<u64> = None;
        for (k, &(b, _)) in spans.iter().enumerate() {
            if k > 0 && spans[k - 1].0 == b {
                continue;
            }
            let waiting_since = min_issue_from[k];
            if waiting_since < b {
                let from = prev.map_or(waiting_since, |a| a.max(waiting_since));
                s.outage_us = s.outage_us.max(b - from);
            }
            prev = Some(b);
        }
        s
    }
}

/// What the users did in the window: op counts, and the wall time of their
/// issue and read calls.
#[derive(Debug, Default, Clone)]
pub struct Tally {
    pub attempted: u64,
    pub not_attempted: u64,
    pub issue_errors: u64,
    pub rejected: u64,
    pub cross: u64,
    pub issue_ns: Vec<u64>,
    pub read: Busy,
}

impl Tally {
    /// Times one issue call and records whether it enqueued the op.
    /// `Ok(true)` means the op is in the ledger; anything else cancels it.
    pub fn issue<E>(&mut self, ledger: &SharedLedger, f: impl FnOnce() -> Result<bool, E>) {
        self.attempted += 1;
        let t = Instant::now();
        let r = f();
        self.issue_ns.push(t.elapsed().as_nanos() as u64);
        match r {
            Ok(true) => {}
            Ok(false) => {
                self.rejected += 1;
                ledger.lock().expect("ledger lock poisoned").cancel_last();
            }
            Err(_) => {
                self.issue_errors += 1;
                ledger.lock().expect("ledger lock poisoned").cancel_last();
            }
        }
    }

    /// Times one read of replicated state.
    pub fn read<R>(&mut self, f: impl FnOnce() -> R) -> R {
        let t = Instant::now();
        let r = f();
        self.read.add(t.elapsed());
        r
    }
}

/// Time spent in the measured window, gauge runs excluded.
#[derive(Debug, Default, Clone, Copy)]
pub struct WindowTimes {
    pub wall: Duration,
    /// This thread's CPU time over the window, raw and scaled to the idle
    /// host.
    pub cpu: Timed,
    pub run_until: Duration,
}

/// Runs the open loop: advance the driver to each arrival, let the user
/// act, then drain to `drain_to`.
pub fn drive<A: Actor>(
    net: &mut SimNet<Traced<A>>,
    arrivals: &[Arrival],
    drain_to: SimTime,
    mut on_event: impl FnMut(&mut SimNet<Traced<A>>, &Arrival),
) -> WindowTimes {
    let start = Instant::now();
    let mut clock = Clock::start();
    let mut run_until = Duration::ZERO;
    for a in arrivals {
        clock.tick();
        let t = Instant::now();
        net.run_until(a.at);
        run_until += t.elapsed();
        on_event(net, a);
    }
    let t = Instant::now();
    net.run_until(drain_to);
    run_until += t.elapsed();
    let cpu = clock.finish();
    WindowTimes {
        wall: start.elapsed() - cpu.gauge_wall,
        cpu,
        run_until,
    }
}

/// Runs `net` in 100 ms steps until `ready` holds, or fails at `deadline`.
pub fn run_until_ready<A: Actor>(
    net: &mut SimNet<Traced<A>>,
    deadline: SimTime,
    ready: impl Fn(&A) -> bool,
) -> Result<(), String> {
    loop {
        let ids = net.members();
        if ids
            .iter()
            .all(|&i| net.actor(i).is_some_and(|w| ready(&w.inner)))
        {
            return Ok(());
        }
        if net.now() >= deadline {
            return Err(format!("cluster not ready by {deadline:?}"));
        }
        let t = net.now() + SimTime::from_millis(100);
        net.run_until(t);
    }
}

/// Protocol-side counters folded over every replica machine.
#[derive(Debug, Default, Clone)]
pub struct ReplicaSummary {
    pub max_exec_count: u32,
    pub exec_histogram: [u64; 8],
    pub replays: u64,
    pub replays_skipped: u64,
    pub committed_own: u64,
    pub committed_async_own: u64,
    pub max_pending_depth: u64,
    pub ops_lost_to_restart: u64,
    pub restarts: u64,
}

impl ReplicaSummary {
    pub fn add(&mut self, m: &Machine) {
        let s = m.stats();
        self.max_exec_count = self.max_exec_count.max(s.max_exec_count);
        for (a, b) in self.exec_histogram.iter_mut().zip(s.exec_histogram) {
            *a += b;
        }
        self.replays += s.replays;
        self.replays_skipped += s.replays_skipped;
        self.committed_own += s.committed_own;
        self.committed_async_own += s.committed_async_own;
        self.max_pending_depth = self.max_pending_depth.max(s.max_pending_depth);
        self.ops_lost_to_restart += s.ops_lost_to_restart;
        self.restarts += s.restarts;
    }

    /// Mean executions per committed own op.
    pub fn exec_per_op(&self) -> f64 {
        let ops: u64 = self.exec_histogram.iter().sum();
        let execs: u64 = self
            .exec_histogram
            .iter()
            .enumerate()
            .map(|(k, n)| k as u64 * n)
            .sum();
        ratio(execs as f64, ops as f64)
    }
}

/// Sync samples of rounds that started in `[t0, t_end)`.
pub fn window_samples(m: &Machine, t0: SimTime, t_end: SimTime) -> Vec<SyncSample> {
    m.stats()
        .sync_samples
        .iter()
        .filter(|s| s.started_at >= t0 && s.started_at < t_end)
        .copied()
        .collect()
}

/// `a / b`, or 0 when `b` is 0.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Transport counters accumulated between two snapshots.
pub fn net_delta(after: NetMetrics, before: NetMetrics) -> NetMetrics {
    NetMetrics {
        sent: after.sent - before.sent,
        delivered: after.delivered - before.delivered,
        dropped: after.dropped - before.dropped,
        duplicated: after.duplicated - before.duplicated,
        timers_fired: after.timers_fired - before.timers_fired,
        bytes_sent: after.bytes_sent - before.bytes_sent,
        bytes_delivered: after.bytes_delivered - before.bytes_delivered,
    }
}

/// Everything one repetition of a simulated workload measured.
#[derive(Debug, Default, Clone)]
pub struct Rep {
    pub setup: Timed,
    pub analysis: Duration,
    pub window: WindowTimes,
    pub callbacks: CallbackTimes,
    pub tally: Tally,
    pub ledger: LedgerSummary,
    pub replicas: ReplicaSummary,
    pub sync: Vec<SyncSample>,
    pub net: NetMetrics,
    pub digest: u64,
    pub mc: McRep,
    /// Failed correctness checks; empty when the run is correct.
    pub violations: Vec<String>,
}

impl Rep {
    /// Failed ops: issue errors and rejections, ops lost to a restart, and
    /// ops still uncommitted at the drain deadline.
    pub fn failed(&self) -> u64 {
        self.tally.issue_errors + self.tally.rejected + self.ledger.uncommitted
    }

    /// The deterministic part of the run, which repetitions with the same
    /// seed (traced or not) must reproduce exactly.
    pub fn fingerprint(&self) -> String {
        format!(
            "digest={:016x} attempted={} not_attempted={} failed={} committed={} conflicts={} \
             net(sent={} delivered={} dropped={} timers={} bytes={}) {}",
            self.digest,
            self.tally.attempted,
            self.tally.not_attempted,
            self.failed(),
            self.ledger.committed,
            self.ledger.conflicts,
            self.net.sent,
            self.net.delivered,
            self.net.dropped,
            self.net.timers_fired,
            self.net.bytes_sent,
            self.mc.fingerprint(),
        )
    }

    /// Checks shared by every simulated workload: no op executed more than
    /// three times, and the run did commit work.
    pub fn check_common(&mut self) {
        if self.replicas.max_exec_count > 3 {
            self.violations.push(format!(
                "an op executed {} times (bound 3)",
                self.replicas.max_exec_count
            ));
        }
        if self.ledger.committed == 0 {
            self.violations.push("no op committed".to_owned());
        }
    }
}

/// Equal committed digests and empty pending lists across `machines`.
pub fn check_converged<'a>(
    machines: impl IntoIterator<Item = &'a Machine>,
    violations: &mut Vec<String>,
) -> u64 {
    let mut digest = None;
    for m in machines {
        if !m.in_cohort() {
            continue;
        }
        let d = m.committed_digest();
        match digest {
            None => digest = Some(d),
            Some(first) if first != d => {
                violations.push(format!("machine {} committed digest differs", m.id()));
            }
            Some(_) => {}
        }
        if m.pending_len() > 0 {
            violations.push(format!(
                "machine {} still has {} pending ops",
                m.id(),
                m.pending_len()
            ));
        }
    }
    digest.unwrap_or_else(|| {
        violations.push("no machine in cohort".to_owned());
        0
    })
}
