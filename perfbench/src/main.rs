//! GUESSTIMATE benchmark runner.
//!
//! `perfbench --workload NAME --seed N --seconds S --trace 0|1`
//!
//! Runs one seeded workload in this process, repeating it (same seed, so
//! every repetition must reproduce the same committed history) at least
//! three times and then as long as another repetition is expected to end
//! within `S` wall seconds.
//! Timed metrics are medians over the repetitions, CPU times scaled to an
//! idle host by the [`gauge`]; virtual-time metrics and counts are the same
//! in each. With `--trace 1` untraced and traced repetitions alternate and
//! the traced ones give the per-layer metrics.
//! Prints a table, then one JSON line with every metric.

mod gauge;
mod mc;
mod probe;
mod sim;
mod sudoku;
mod suite;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Instant;

use guesstimate_telemetry::Telemetry;

use sim::{ratio, Rep};

const WORKLOADS: [&str; 2] = ["sudoku_paper", "suite_sharded"];
const MIN_REPS: usize = 3;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => trace = value()? == "1",
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// Metric name → (value, unit), in name order.
#[derive(Default)]
struct Metrics(BTreeMap<String, (f64, &'static str)>);

impl Metrics {
    fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.0.insert(name.to_owned(), (value, unit));
    }
}

/// Nearest-rank percentile of sorted data.
fn pct(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

fn median(mut v: Vec<f64>) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

fn median_of<T>(reps: &[T], f: impl Fn(&T) -> f64) -> f64 {
    median(reps.iter().map(f).collect())
}

/// The process's peak resident set (`VmHWM`) since the last
/// [`reset_peak_rss`], in MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Restarts `VmHWM` from the current resident set, so that each repetition
/// reports its own peak whatever ran before it in the process.
fn reset_peak_rss() {
    // Without the reset the peak only covers more repetitions, never fewer.
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

fn run_sim(workload: &str, seed: u64, tracing: bool, telemetry_on: bool) -> Rep {
    match workload {
        "sudoku_paper" => sudoku::run(seed, tracing),
        "suite_sharded" => {
            let telemetry = if telemetry_on {
                Telemetry::new()
            } else {
                Telemetry::noop()
            };
            suite::run(seed, tracing, telemetry)
        }
        other => unreachable!("not a simulated workload: {other}"),
    }
}

/// Committed ops per CPU second of the window, scaled to the idle host.
fn ops_per_s(r: &Rep) -> f64 {
    ratio(r.ledger.committed as f64, r.window.cpu.scaled.as_secs_f64())
}

fn mc_schedules_per_s(r: &Rep) -> f64 {
    ratio(r.mc.schedules as f64, r.mc.cpu.scaled.as_secs_f64())
}

fn end_to_end(reps: &[Rep], peak_rss: f64, m: &mut Metrics) {
    let r = &reps[0];
    let committed = r.ledger.committed as f64;
    let mut sync: Vec<u64> = r.sync.iter().map(|s| s.duration.as_micros()).collect();
    sync.sort_unstable();
    m.put("committed_ops_per_s", median_of(reps, ops_per_s), "ops/s");
    // The unscaled figure, and how much slower than idle the host ran.
    m.put(
        "committed_ops_per_cpu_s",
        median_of(reps, |r| {
            ratio(r.ledger.committed as f64, r.window.cpu.cpu.as_secs_f64())
        }),
        "ops/s",
    );
    m.put(
        "host_slowdown",
        median_of(reps, |r| {
            ratio(
                r.window.cpu.cpu.as_secs_f64(),
                r.window.cpu.scaled.as_secs_f64(),
            )
        }),
        "ratio",
    );
    for (name, p) in [("issue_us_p50", 0.5), ("issue_us_p99", 0.99)] {
        let v = median_of(reps, |r| {
            let mut ns = r.tally.issue_ns.clone();
            ns.sort_unstable();
            pct(&ns, p) as f64 / 1e3
        });
        m.put(name, v, "us");
    }
    m.put(
        "commit_lag_ms_p50",
        pct(&r.ledger.lags_us, 0.5) as f64 / 1e3,
        "ms",
    );
    m.put(
        "commit_lag_ms_p90",
        pct(&r.ledger.lags_us, 0.9) as f64 / 1e3,
        "ms",
    );
    m.put(
        "commit_lag_ms_p99",
        pct(&r.ledger.lags_us, 0.99) as f64 / 1e3,
        "ms",
    );
    m.put("sync_ms_p50", pct(&sync, 0.5) as f64 / 1e3, "ms");
    m.put("sync_ms_p99", pct(&sync, 0.99) as f64 / 1e3, "ms");
    m.put("outage_ms_max", r.ledger.outage_us as f64 / 1e3, "ms");
    m.put(
        "conflict_rate",
        ratio(r.ledger.conflicts as f64, committed),
        "ratio",
    );
    m.put(
        "failed_op_share",
        ratio(r.failed() as f64, r.tally.attempted as f64),
        "ratio",
    );
    m.put(
        "bytes_per_committed_op",
        ratio(r.net.bytes_sent as f64, committed),
        "B",
    );
    m.put(
        "msgs_per_committed_op",
        ratio(r.net.delivered as f64, committed),
        "count",
    );
    m.put(
        "setup_s",
        median_of(reps, |r| r.setup.scaled.as_secs_f64()),
        "s",
    );
    m.put("peak_rss_mb", peak_rss, "MB");
    m.put(
        "mc_schedules_per_s",
        median_of(reps, mc_schedules_per_s),
        "1/s",
    );
}

fn per_layer(traced: &[Rep], plain: &[Rep], noop: &[Rep], m: &mut Metrics) {
    let r = &traced[0];
    let busy_us = |ns: u64| ns as f64 / 1e3;
    for (i, (kind, b)) in r.callbacks.buckets().into_iter().enumerate() {
        m.put(&format!("runtime.{kind}.count"), b.count as f64, "count");
        let v = median_of(traced, |t| busy_us(t.callbacks.buckets()[i].1.ns));
        m.put(&format!("runtime.{kind}.busy_us"), v, "us");
    }
    m.put("runtime.issue.count", r.tally.attempted as f64, "count");
    m.put(
        "runtime.issue.busy_us",
        median_of(traced, |t| busy_us(t.tally.issue_ns.iter().sum())),
        "us",
    );
    m.put(
        "runtime.issue.failed",
        (r.tally.issue_errors + r.tally.rejected) as f64,
        "count",
    );
    m.put("runtime.read.count", r.tally.read.count as f64, "count");
    m.put(
        "runtime.read.busy_us",
        median_of(traced, |t| busy_us(t.tally.read.ns)),
        "us",
    );
    m.put(
        "net.driver.self_us",
        median_of(traced, |t| {
            busy_us(t.window.run_until.as_nanos() as u64) - busy_us(t.callbacks.total_ns())
        }),
        "us",
    );
    m.put("net.delivered", r.net.delivered as f64, "count");
    m.put("net.dropped", r.net.dropped as f64, "count");
    m.put("net.timers_fired", r.net.timers_fired as f64, "count");
    m.put("net.bytes_sent", r.net.bytes_sent as f64, "B");
    m.put(
        "trace.window_us",
        median_of(traced, |t| busy_us(t.window.wall.as_nanos() as u64)),
        "us",
    );
    // What the window's wall time holds besides the driver and the timed
    // user calls: the benchmark's own op generation and bookkeeping.
    m.put(
        "trace.unattributed_share",
        median_of(traced, |t| {
            let attributed = t.window.run_until.as_nanos() as u64
                + t.tally.issue_ns.iter().sum::<u64>()
                + t.tally.read.ns;
            let wall = t.window.wall.as_nanos() as f64;
            ratio(wall - attributed as f64, wall)
        }),
        "ratio",
    );
    let stage = |f: fn(&guesstimate_runtime::SyncSample) -> u64| {
        let mut v: Vec<u64> = r.sync.iter().map(f).collect();
        v.sort_unstable();
        pct(&v, 0.5) as f64 / 1e3
    };
    m.put(
        "round.flush_ms_p50",
        stage(|s| s.flush_duration.as_micros()),
        "ms",
    );
    m.put(
        "round.apply_ms_p50",
        stage(|s| s.apply_duration.as_micros()),
        "ms",
    );
    m.put(
        "round.completion_ms_p50",
        stage(|s| s.completion_duration.as_micros()),
        "ms",
    );
    let round_ops: u64 = r.sync.iter().map(|s| s.ops_committed).sum();
    m.put(
        "round.ops_per_round_mean",
        ratio(round_ops as f64, r.sync.len() as f64),
        "count",
    );
    let rs = &r.replicas;
    m.put("runtime.exec_per_op", rs.exec_per_op(), "ratio");
    m.put(
        "runtime.replay_skip_share",
        ratio(
            rs.replays_skipped as f64,
            (rs.replays + rs.replays_skipped) as f64,
        ),
        "ratio",
    );
    m.put(
        "runtime.async_share",
        ratio(rs.committed_async_own as f64, rs.committed_own as f64),
        "ratio",
    );
    m.put(
        "runtime.max_pending_depth",
        rs.max_pending_depth as f64,
        "count",
    );
    m.put(
        "runtime.ops_lost_to_restart",
        rs.ops_lost_to_restart as f64,
        "count",
    );
    m.put("multigroup.cross.count", r.tally.cross as f64, "count");
    m.put(
        "multigroup.cross_share",
        ratio(r.tally.cross as f64, r.ledger.committed as f64),
        "ratio",
    );
    m.put(
        "analysis.derive.busy_s",
        median_of(traced, |t| t.analysis.as_secs_f64()),
        "s",
    );
    let cpu = |reps: &[Rep]| median_of(reps, |t| t.window.cpu.scaled.as_secs_f64());
    let overhead = |with: &[Rep], without: &[Rep]| {
        if with.is_empty() || without.is_empty() {
            0.0
        } else {
            cpu(with) / cpu(without) - 1.0
        }
    };
    m.put("trace.overhead_share", overhead(traced, plain), "ratio");
    m.put("telemetry.overhead_share", overhead(plain, noop), "ratio");
    m.put("mc.schedules", r.mc.schedules as f64, "count");
    m.put("mc.steps", r.mc.steps as f64, "count");
    m.put(
        "mc.us_per_step",
        median_of(traced, |t| {
            ratio(t.mc.cpu.scaled.as_secs_f64() * 1e6, t.mc.steps as f64)
        }),
        "us",
    );
    m.put(
        "mc.pruned_share",
        ratio(r.mc.pruned as f64, (r.mc.pruned + r.mc.steps) as f64),
        "ratio",
    );
}

/// Runs `one` at least `MIN_REPS` times, and then as long as another run
/// is expected to end within the time budget. Returns the results and the
/// median of their peak resident sets.
fn repeat<T>(seconds: f64, mut one: impl FnMut() -> T) -> (Vec<T>, f64) {
    let start = Instant::now();
    let mut out = Vec::new();
    let mut peaks = Vec::new();
    while out.len() < MIN_REPS || {
        let spent = start.elapsed().as_secs_f64();
        spent + spent / out.len() as f64 <= seconds
    } {
        reset_peak_rss();
        out.push(one());
        peaks.push(peak_rss_mb());
    }
    (out, median(peaks))
}

/// Flags every repetition whose deterministic outcome differs from `first`.
fn check_same(label: &str, first: &str, prints: &[String], violations: &mut Vec<String>) {
    for (i, p) in prints.iter().enumerate() {
        if p != first {
            violations.push(format!("{label} repetition {i} diverged: {p} vs {first}"));
        }
    }
}

struct Outcome {
    metrics: Metrics,
    attempted: u64,
    failed: u64,
    violations: Vec<String>,
    notes: Vec<String>,
}

fn run_simulated(a: &Args) -> Outcome {
    let mut m = Metrics::default();
    let mut violations = Vec::new();
    let mut notes = Vec::new();
    let with_noop = a.workload == "suite_sharded";
    let (plain, traced, noop, peak_rss) = if a.trace {
        let (cycles, peak_rss) = repeat(a.seconds, || {
            let plain = run_sim(&a.workload, a.seed, false, true);
            let traced = run_sim(&a.workload, a.seed, true, true);
            let noop = with_noop.then(|| run_sim(&a.workload, a.seed, false, false));
            (plain, traced, noop)
        });
        let mut plain = Vec::new();
        let mut traced = Vec::new();
        let mut noop = Vec::new();
        for (p, t, n) in cycles {
            plain.push(p);
            traced.push(t);
            noop.extend(n);
        }
        (plain, traced, noop, peak_rss)
    } else {
        let (plain, peak_rss) = repeat(a.seconds, || run_sim(&a.workload, a.seed, false, true));
        (plain, Vec::new(), Vec::new(), peak_rss)
    };
    for r in plain.iter().chain(&traced).chain(&noop) {
        for v in &r.violations {
            if !violations.contains(v) {
                violations.push(v.clone());
            }
        }
    }
    // Same seed, same history: across repetitions, with the layer probes on
    // (trace invisibility) and with telemetry off (telemetry invisibility).
    let r = &plain[0];
    let first = r.fingerprint();
    for (label, reps) in [
        ("untraced", &plain),
        ("traced", &traced),
        ("telemetry-off", &noop),
    ] {
        let prints: Vec<String> = reps.iter().map(Rep::fingerprint).collect();
        check_same(label, &first, &prints, &mut violations);
    }
    notes.push(format!("fingerprint {}", r.fingerprint()));
    notes.push(format!(
        "repetitions {} untraced, {} traced, {} telemetry-off",
        plain.len(),
        traced.len(),
        noop.len()
    ));
    notes.push(format!(
        "samples: {} issue calls per repetition, {} commit lags, {} sync rounds",
        r.tally.issue_ns.len(),
        r.ledger.lags_us.len(),
        r.sync.len()
    ));
    notes.push(format!(
        "ops: {} attempted, {} not attempted, {} committed, {} conflicts, {} failed \
         ({} issue errors, {} rejected at issue, {} uncommitted at drain incl. {} lost to restart)",
        r.tally.attempted,
        r.tally.not_attempted,
        r.ledger.committed,
        r.ledger.conflicts,
        r.failed(),
        r.tally.issue_errors,
        r.tally.rejected,
        r.ledger.uncommitted,
        r.replicas.ops_lost_to_restart
    ));
    if a.trace {
        per_layer(&traced, &plain, &noop, &mut m);
    } else {
        end_to_end(&plain, peak_rss, &mut m);
    }
    Outcome {
        metrics: m,
        attempted: r.tally.attempted,
        failed: r.failed(),
        violations,
        notes,
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let out = run_simulated(&args);
    let correct = out.violations.is_empty();
    // A run that fails a correctness check counts all its ops as failed.
    let failed = if correct { out.failed } else { out.attempted };
    println!(
        "# {} seed {} trace {}",
        args.workload,
        args.seed,
        u8::from(args.trace)
    );
    for n in &out.notes {
        println!("# {n}");
    }
    for v in &out.violations {
        println!("# CHECK FAILED: {v}");
    }
    for (name, (v, unit)) in &out.metrics.0 {
        println!("# {name:<32} {v:>16.4} {unit}");
    }
    let metrics: Vec<String> = out
        .metrics
        .0
        .iter()
        .map(|(name, (v, unit))| {
            format!(
                "{}: {{\"value\": {v}, \"unit\": {}}}",
                json_str(name),
                json_str(unit)
            )
        })
        .collect();
    let notes: Vec<String> = out.notes.iter().map(|n| json_str(n)).collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}, \"notes\": [{}]}}",
        out.attempted,
        metrics.join(", "),
        notes.join(", ")
    );
    ExitCode::SUCCESS
}
