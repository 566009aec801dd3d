//! Bench-side layer probes.
//!
//! [`Traced`] wraps any [`Actor`] and forwards every callback unchanged, so
//! the protocol under it cannot tell it is there. It always keeps a copy of
//! the latest virtual time (completion routines read it to learn their
//! commit time). With tracing on it also times each callback, keyed by
//! [`Actor::msg_kind`] for deliveries and by `timer` for timers.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use guesstimate_core::MachineId;
use guesstimate_net::{Actor, Channel, Ctx, SimTime};

/// Message kinds reported one by one; every other kind is pooled as `other`.
pub const KINDS: [&str; 9] = [
    "begin_apply",
    "begin_sync",
    "ops",
    "flush_done",
    "ack",
    "sync_complete",
    "async_op",
    "join_info",
    "cross_submit",
];

/// Calls made and wall time spent in one kind of callback.
#[derive(Debug, Default, Clone, Copy)]
pub struct Busy {
    pub count: u64,
    pub ns: u64,
}

impl Busy {
    pub fn add(&mut self, d: Duration) {
        self.count += 1;
        self.ns += d.as_nanos() as u64;
    }
}

/// Callback time per kind.
#[derive(Debug, Default, Clone)]
pub struct CallbackTimes {
    pub by_kind: BTreeMap<&'static str, Busy>,
}

impl CallbackTimes {
    pub fn total_ns(&self) -> u64 {
        self.by_kind.values().map(|b| b.ns).sum()
    }

    /// The named kinds, then `other` and `timer`, each as one [`Busy`].
    pub fn buckets(&self) -> Vec<(&'static str, Busy)> {
        let mut out: Vec<(&'static str, Busy)> = KINDS
            .iter()
            .map(|k| (*k, self.by_kind.get(k).copied().unwrap_or_default()))
            .collect();
        let mut other = Busy::default();
        for (k, b) in &self.by_kind {
            if !KINDS.contains(k) && *k != "timer" {
                other.count += b.count;
                other.ns += b.ns;
            }
        }
        out.push(("other", other));
        out.push((
            "timer",
            self.by_kind.get("timer").copied().unwrap_or_default(),
        ));
        out
    }
}

/// State shared by every wrapped actor of one cluster.
#[derive(Debug)]
pub struct Probe {
    now_us: AtomicU64,
    tracing: bool,
    times: Mutex<CallbackTimes>,
}

impl Probe {
    pub fn new(tracing: bool) -> Arc<Self> {
        Arc::new(Probe {
            now_us: AtomicU64::new(0),
            tracing,
            times: Mutex::new(CallbackTimes::default()),
        })
    }

    /// Records the virtual time of the callback about to run.
    pub fn tick(&self, now: SimTime) {
        self.now_us.store(now.as_micros(), Ordering::Relaxed);
    }

    /// The virtual time of the callback running now (or last run).
    pub fn now_us(&self) -> u64 {
        self.now_us.load(Ordering::Relaxed)
    }

    fn charge(&self, kind: &'static str, d: Duration) {
        self.times
            .lock()
            .expect("probe lock poisoned")
            .by_kind
            .entry(kind)
            .or_default()
            .add(d);
    }

    /// Returns the callback times so far and starts again from zero.
    pub fn take(&self) -> CallbackTimes {
        std::mem::take(&mut *self.times.lock().expect("probe lock poisoned"))
    }
}

/// A transparent wrapper actor; see the module docs.
pub struct Traced<A> {
    pub inner: A,
    probe: Arc<Probe>,
}

impl<A> Traced<A> {
    pub fn new(inner: A, probe: Arc<Probe>) -> Self {
        Traced { inner, probe }
    }

    fn timed<R>(&mut self, kind: &'static str, f: impl FnOnce(&mut A) -> R) -> R {
        if !self.probe.tracing {
            return f(&mut self.inner);
        }
        let t = Instant::now();
        let r = f(&mut self.inner);
        self.probe.charge(kind, t.elapsed());
        r
    }
}

impl<A: Actor> Actor for Traced<A> {
    type Msg = A::Msg;

    fn on_start(&mut self, ctx: &mut Ctx<'_, Self::Msg>) {
        self.probe.tick(ctx.now());
        self.timed("start", |a| a.on_start(ctx));
    }

    fn on_message(
        &mut self,
        from: MachineId,
        channel: Channel,
        msg: Self::Msg,
        ctx: &mut Ctx<'_, Self::Msg>,
    ) {
        self.probe.tick(ctx.now());
        let kind = A::msg_kind(&msg);
        self.timed(kind, |a| a.on_message(from, channel, msg, ctx));
    }

    fn on_timer(&mut self, tag: u64, ctx: &mut Ctx<'_, Self::Msg>) {
        self.probe.tick(ctx.now());
        self.timed("timer", |a| a.on_timer(tag, ctx));
    }

    fn msg_size(msg: &Self::Msg) -> u64 {
        A::msg_size(msg)
    }

    fn msg_kind(msg: &Self::Msg) -> &'static str {
        A::msg_kind(msg)
    }
}
