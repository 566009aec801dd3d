//! Host-speed gauge: CPU time scaled to an idle host.
//!
//! On a shared host the same work takes up to twice the CPU time while
//! other tenants load the machine's caches and memory. A [`Clock`] times
//! a phase in segments and, between segments, runs [`gauge`], a fixed task
//! of the benchmark's own that makes the same kind of demands as the
//! runtime: string-keyed maps, nested state cloned and edited in rounds,
//! and allocation churn. Each segment's CPU time is scaled by
//! [`GAUGE_IDLE`] over the gauge's cost around it, so a slowdown that slows
//! the gauge as much as the program drops out of the figure.
//! The gauge calls no code of the repository: making the program faster
//! does not make the gauge faster.

use std::collections::{BTreeMap, HashMap};
use std::hint::black_box;
use std::time::{Duration, Instant};

use crate::sim::thread_cpu;

/// What one [`gauge`] run costs on an undisturbed host: the least of 900
/// runs in a row on a 2-vCPU Intel Xeon (Sapphire Rapids) VM.
pub const GAUGE_IDLE: Duration = Duration::from_micros(4_500);

/// Wall time between gauge runs in a phase that laps with [`Clock::tick`].
const INTERVAL: Duration = Duration::from_millis(100);

fn xorshift(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

/// String-keyed map: builds 6,000 entries, clones the map and looks up
/// 3,000 keys.
fn string_map(x: &mut u64) -> usize {
    let mut map: BTreeMap<String, String> = BTreeMap::new();
    for _ in 0..6000 {
        let k = xorshift(x) % 40_000;
        let v = xorshift(x) % 1000;
        map.insert(format!("/obj/{k}/field"), format!("value-{v}"));
    }
    let copy = black_box(map.clone());
    let mut found = 0;
    for _ in 0..3000 {
        let k = format!("/obj/{}/field", xorshift(x) % 40_000);
        found += copy.get(&k).map_or(0, String::len);
    }
    found
}

/// Nested state applied to in rounds: each round clones the committed
/// state into a guess, applies 60 random edits and reads back, like a
/// replica's copy, apply and replay.
fn nested_rounds(x: &mut u64) -> usize {
    let mut state: BTreeMap<String, BTreeMap<String, Vec<String>>> = BTreeMap::new();
    for t in 0..16 {
        let users = (0..24)
            .map(|u| {
                let posts = (0..4).map(|p| format!("post {t}-{u}-{p}")).collect();
                (format!("u{u}_{}", t % 3), posts)
            })
            .collect();
        state.insert(format!("topic{t}"), users);
    }
    let mut seen = 0;
    for round in 0..6 {
        let mut guess = state.clone();
        for _ in 0..60 {
            let t = format!("topic{}", xorshift(x) % 16);
            let u = format!("u{}_{}", xorshift(x) % 24, xorshift(x) % 3);
            match xorshift(x) % 4 {
                0 => guess
                    .entry(t)
                    .or_default()
                    .entry(u)
                    .or_default()
                    .push(format!("post r{round}")),
                1 => {
                    if let Some(posts) = guess.get_mut(&t).and_then(|m| m.get_mut(&u)) {
                        posts.pop();
                    }
                }
                2 => {
                    if let Some(users) = guess.get_mut(&t) {
                        users.remove(&u);
                    }
                }
                _ => seen += guess.get(&t).map_or(0, |m| m.values().map(Vec::len).sum()),
            }
        }
        let mut users: Vec<&String> = guess.values().flat_map(|m| m.keys()).collect();
        users.sort();
        users.dedup();
        seen += users.len();
        state = guess;
    }
    seen
}

/// Allocation churn: 6,000 vectors of 1 to 64 words, at most 2,000 live,
/// freed in random order, then copied into a hash map.
fn alloc_churn(x: &mut u64) -> usize {
    let mut live: Vec<Vec<u64>> = Vec::new();
    let mut freed = 0;
    for _ in 0..6000 {
        let n = (xorshift(x) % 64) as usize + 1;
        live.push(vec![*x; n]);
        if live.len() > 2000 {
            let i = (xorshift(x) % live.len() as u64) as usize;
            freed += live.swap_remove(i).len();
        }
    }
    let copies: HashMap<u64, Vec<u64>> = live
        .iter()
        .map(|v| (v[0] ^ v.len() as u64, v.clone()))
        .collect();
    freed + copies.len()
}

/// The fixed reference task; returns its CPU time.
pub fn gauge() -> Duration {
    let start = thread_cpu();
    let mut x = 0x2545_F491_4F6C_DD1D_u64;
    black_box(string_map(&mut x) + nested_rounds(&mut x) + alloc_churn(&mut x));
    thread_cpu() - start
}

/// A phase's CPU time, raw and scaled to the idle host.
#[derive(Debug, Default, Clone, Copy)]
pub struct Timed {
    /// This thread's CPU time over the phase, gauge runs excluded.
    pub cpu: Duration,
    /// `cpu` with each segment scaled by `GAUGE_IDLE` over the mean of the
    /// gauge runs before and after it.
    pub scaled: Duration,
    /// Wall time spent in gauge runs, to subtract from the phase's wall time.
    pub gauge_wall: Duration,
}

/// Times a phase in gauged segments.
pub struct Clock {
    timed: Timed,
    scaled_s: f64,
    before: Duration,
    seg_start: Duration,
    last_lap: Instant,
}

impl Clock {
    /// Gauges the host, then starts the first segment.
    pub fn start() -> Self {
        let wall = Instant::now();
        let before = gauge();
        Clock {
            timed: Timed {
                gauge_wall: wall.elapsed(),
                ..Timed::default()
            },
            scaled_s: 0.0,
            before,
            seg_start: thread_cpu(),
            last_lap: Instant::now(),
        }
    }

    /// Ends the current segment, gauges the host and starts the next one.
    pub fn lap(&mut self) {
        let seg = thread_cpu() - self.seg_start;
        let wall = Instant::now();
        let after = gauge();
        let around = (self.before + after).as_secs_f64() / 2.0;
        self.timed.cpu += seg;
        self.scaled_s += seg.as_secs_f64() * GAUGE_IDLE.as_secs_f64() / around;
        self.before = after;
        self.last_lap = Instant::now();
        self.timed.gauge_wall += self.last_lap - wall;
        self.seg_start = thread_cpu();
    }

    /// Laps once [`INTERVAL`] of wall time has passed since the last lap.
    pub fn tick(&mut self) {
        if self.last_lap.elapsed() >= INTERVAL {
            self.lap();
        }
    }

    /// Ends the last segment.
    pub fn finish(mut self) -> Timed {
        self.lap();
        self.timed.scaled = Duration::from_secs_f64(self.scaled_s);
        self.timed
    }
}
