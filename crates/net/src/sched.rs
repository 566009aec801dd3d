//! A controlled-scheduler mesh for systematic exploration.
//!
//! [`SimNet`](crate::SimNet) is deterministic: events fire in `(time,
//! scheduling-order)` sequence and a seed fixes everything else. That is
//! perfect for experiments and fatal for model checking, where the point
//! is to *choose* the next event. [`SchedNet`] runs the same [`Actor`]s
//! but externalizes every nondeterministic decision:
//!
//! - **Message deliveries** are never performed spontaneously. Each send
//!   or broadcast leg becomes a [`PendingMsg`] with a stable sequence
//!   number; the caller picks which one to [`deliver`](SchedNet::deliver)
//!   or [`drop_msg`](SchedNet::drop_msg) next.
//! - **Joins** are staged with [`stage_join`](SchedNet::stage_join) and
//!   happen only when the caller [`admit`](SchedNet::admit)s them, making
//!   "the late joiner shows up *here*" an explorable choice point.
//! - **Timers** are kept in a `(due, seq)`-ordered queue; the caller fires
//!   the earliest with [`fire_next_timer`](SchedNet::fire_next_timer),
//!   which is the only thing that advances virtual time. Deliveries are
//!   instantaneous (latency is subsumed by delivery *order*), so the
//!   relative spacing of protocol timeouts — sync period < join retry <
//!   stall timeout — is preserved exactly while every delivery
//!   interleaving between two ticks remains reachable.
//!
//! A model checker drives this as a tree walk: the set of pending
//! sequence numbers (plus staged joins and the next timer) is the enabled
//! set at the current node. A `SchedNet` of clonable actors is itself
//! [`Clone`], so the walk forks the mesh at a branch point and backtracks
//! by restoring the fork. Sequence numbers are deterministic, so a
//! recorded sequence of choices replayed from a fresh `SchedNet` reaches
//! the same state — which is how schedule files replay verbatim.
//!
//! The optional [tamper hook](SchedNet::set_tamper) mutates a message at
//! the moment of delivery. The model checker's seeded-mutation test uses
//! it to corrupt a commit order and prove the oracles catch it; it is a
//! test surface, not a protocol feature.

use std::collections::BTreeMap;
use std::sync::Arc;

use guesstimate_core::MachineId;

use crate::actor::{Action, Actor, Ctx};
use crate::channel::Channel;
use crate::metrics::NetMetrics;
use crate::time::SimTime;
use crate::trace::{NoopTracer, TraceEvent, TraceRecord, Tracer};

/// A message leg awaiting a delivery decision.
#[derive(Debug, Clone)]
pub struct PendingMsg<M> {
    /// Stable choice identity (assigned at send time, never reused).
    pub seq: u64,
    /// Sender.
    pub from: MachineId,
    /// Receiver.
    pub to: MachineId,
    /// Channel the message was sent on.
    pub channel: Channel,
    /// The payload.
    pub msg: M,
    /// Causal stamp of the send action this leg belongs to; broadcast
    /// fan-out legs share one stamp (see [`TraceEvent::MsgSent`]).
    pub stamp: u64,
}

/// A pending timer, ordered by `(due, seq)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct TimerKey {
    due: SimTime,
    seq: u64,
}

/// Mutates a message as it is delivered; returns `true` if it changed
/// anything. Arguments: delivery seq, sender, receiver, payload.
///
/// Blanket-implemented for every clonable closure of that shape, so a
/// hook with captured state (say, a delivery counter) forks with the
/// [`SchedNet`] that holds it and each fork keeps its own copy.
pub trait TamperFn<M>: Send {
    /// Inspects (and possibly mutates) one delivery.
    fn tamper(&mut self, seq: u64, from: MachineId, to: MachineId, msg: &mut M) -> bool;
    /// Clones the hook, captured state included.
    fn clone_box(&self) -> TamperHook<M>;
}

impl<M, F> TamperFn<M> for F
where
    F: FnMut(u64, MachineId, MachineId, &mut M) -> bool + Clone + Send + 'static,
{
    fn tamper(&mut self, seq: u64, from: MachineId, to: MachineId, msg: &mut M) -> bool {
        self(seq, from, to, msg)
    }

    fn clone_box(&self) -> TamperHook<M> {
        Box::new(self.clone())
    }
}

/// The installed delivery-time tamper hook (see [`TamperFn`]).
pub type TamperHook<M> = Box<dyn TamperFn<M>>;

impl<M> Clone for TamperHook<M> {
    fn clone(&self) -> Self {
        self.clone_box()
    }
}

/// A mesh whose every delivery, join, and timer firing is an external
/// choice. See the module docs for the model.
///
/// Cloning forks the whole mesh — actors, in-flight messages, staged
/// joins, armed timers, seq/stamp counters, metrics and the tamper hook's
/// captured state — so the fork and the original evolve independently
/// under the same choices. The tracer sink is shared, not copied.
#[derive(Clone)]
pub struct SchedNet<A: Actor> {
    machines: BTreeMap<MachineId, A>,
    /// Messages in flight, keyed by stable seq.
    pending: BTreeMap<u64, PendingMsg<A::Msg>>,
    /// Staged joiners, keyed by stable seq.
    joins: BTreeMap<u64, (MachineId, Option<A>)>,
    /// Armed timers: `(due, seq) -> (machine, tag)`.
    timers: BTreeMap<TimerKey, (MachineId, u64)>,
    now: SimTime,
    seq: u64,
    stamps: u64,
    tamper: Option<TamperHook<A::Msg>>,
    tampered: u64,
    metrics: NetMetrics,
    tracer: Arc<dyn Tracer>,
}

impl<A: Actor> std::fmt::Debug for SchedNet<A> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SchedNet")
            .field("machines", &self.machines.keys().collect::<Vec<_>>())
            .field("pending", &self.pending.len())
            .field("joins", &self.joins.len())
            .field("timers", &self.timers.len())
            .field("now", &self.now)
            .finish()
    }
}

impl<A: Actor> Default for SchedNet<A> {
    fn default() -> Self {
        Self::new()
    }
}

impl<A: Actor> SchedNet<A> {
    /// Creates an empty controlled mesh at time zero.
    pub fn new() -> Self {
        SchedNet {
            machines: BTreeMap::new(),
            pending: BTreeMap::new(),
            joins: BTreeMap::new(),
            timers: BTreeMap::new(),
            now: SimTime::ZERO,
            seq: 0,
            stamps: 0,
            tamper: None,
            tampered: 0,
            metrics: NetMetrics::default(),
            tracer: Arc::new(NoopTracer),
        }
    }

    /// Installs a tracer for driver-level causal-stamp events
    /// ([`TraceEvent::MsgSent`] / [`TraceEvent::MsgReceived`]). Used by the
    /// model checker's postmortem replay to reconstruct the causal
    /// timeline of a shrunken violating schedule.
    pub fn set_tracer(&mut self, tracer: Arc<dyn Tracer>) {
        self.tracer = tracer;
    }

    fn trace(&self, source: MachineId, event: TraceEvent) {
        self.tracer.record(TraceRecord {
            at: self.now,
            source,
            event,
        });
    }

    /// The current virtual time (advanced only by timer firings).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Transport counters so far: every send leg counts as `sent`, every
    /// [`SchedNet::deliver`] as `delivered`, every
    /// [`SchedNet::drop_msg`] as `dropped`.
    pub fn metrics(&self) -> NetMetrics {
        self.metrics
    }

    /// Ids of current members, in order.
    pub fn members(&self) -> Vec<MachineId> {
        self.machines.keys().copied().collect()
    }

    /// Immutable access to an actor.
    pub fn actor(&self, id: MachineId) -> Option<&A> {
        self.machines.get(&id)
    }

    /// Mutable access to an actor, **without** a context (assertions and
    /// stat extraction only; use [`SchedNet::call`] when the mutation may
    /// send messages or set timers).
    pub fn actor_mut(&mut self, id: MachineId) -> Option<&mut A> {
        self.machines.get_mut(&id)
    }

    /// Installs the delivery-time tamper hook (see the module docs).
    pub fn set_tamper(&mut self, hook: TamperHook<A::Msg>) {
        self.tamper = Some(hook);
    }

    /// How many deliveries the tamper hook reported mutating.
    pub fn tamper_count(&self) -> u64 {
        self.tampered
    }

    /// Adds a machine *now*; its [`Actor::on_start`] runs immediately.
    pub fn add_machine(&mut self, id: MachineId, actor: A) {
        self.machines.insert(id, actor);
        self.invoke(id, |a, ctx| a.on_start(ctx));
    }

    /// Stages `actor` as a joiner and returns the choice seq that
    /// [`SchedNet::admit`] takes.
    pub fn stage_join(&mut self, id: MachineId, actor: A) -> u64 {
        let seq = self.next_seq();
        self.joins.insert(seq, (id, Some(actor)));
        seq
    }

    /// Invokes `f` on an actor *now*, with a context. Returns `false` if
    /// the machine is not a member.
    pub fn call(&mut self, id: MachineId, f: impl FnOnce(&mut A, &mut Ctx<'_, A::Msg>)) -> bool {
        if !self.machines.contains_key(&id) {
            return false;
        }
        self.invoke(id, f);
        true
    }

    /// The sequence numbers of all messages awaiting a decision, ascending.
    pub fn pending_msgs(&self) -> Vec<u64> {
        self.pending.keys().copied().collect()
    }

    /// Looks at one in-flight message.
    pub fn pending_msg(&self, seq: u64) -> Option<&PendingMsg<A::Msg>> {
        self.pending.get(&seq)
    }

    /// The choice seqs of all staged joiners, ascending.
    pub fn pending_joins(&self) -> Vec<u64> {
        self.joins.keys().copied().collect()
    }

    /// The staged joiner behind a choice seq.
    pub fn pending_join(&self, seq: u64) -> Option<MachineId> {
        self.joins.get(&seq).map(|(id, _)| *id)
    }

    /// True if any timer is armed.
    pub fn has_timers(&self) -> bool {
        !self.timers.is_empty()
    }

    /// The due time of the earliest armed timer.
    pub fn next_timer_due(&self) -> Option<SimTime> {
        self.timers.keys().next().map(|k| k.due)
    }

    /// Delivers message `seq` now. Returns `false` (and discards nothing)
    /// if `seq` is not pending; a delivery to a machine that has left is
    /// consumed silently, like a real network handing bytes to a dead
    /// host.
    pub fn deliver(&mut self, seq: u64) -> bool {
        let Some(mut p) = self.pending.remove(&seq) else {
            return false;
        };
        if let Some(hook) = self.tamper.as_mut() {
            if hook.tamper(p.seq, p.from, p.to, &mut p.msg) {
                self.tampered += 1;
            }
        }
        if self.machines.contains_key(&p.to) {
            self.metrics.delivered += 1;
            self.metrics.bytes_delivered += A::msg_size(&p.msg);
            self.trace(
                p.to,
                TraceEvent::MsgReceived {
                    origin: p.from,
                    stamp: p.stamp,
                    kind: A::msg_kind(&p.msg),
                },
            );
            self.invoke(p.to, |a, ctx| a.on_message(p.from, p.channel, p.msg, ctx));
        } else {
            self.metrics.dropped += 1;
        }
        true
    }

    /// Drops message `seq` (the "network loses it" choice). Returns
    /// `false` if `seq` is not pending.
    pub fn drop_msg(&mut self, seq: u64) -> bool {
        let dropped = self.pending.remove(&seq).is_some();
        if dropped {
            self.metrics.dropped += 1;
        }
        dropped
    }

    /// Admits the staged joiner behind choice `seq`: the machine becomes a
    /// member and its `on_start` runs. Returns `false` if `seq` is not a
    /// staged join.
    pub fn admit(&mut self, seq: u64) -> bool {
        let Some((id, actor)) = self.joins.remove(&seq) else {
            return false;
        };
        let Some(actor) = actor else { return false };
        self.machines.insert(id, actor);
        self.invoke(id, |a, ctx| a.on_start(ctx));
        true
    }

    /// Fires the earliest armed timer (by `(due, seq)`), advancing virtual
    /// time to its due instant. Returns `false` if no timer is armed.
    ///
    /// Timers on departed machines are discarded (and the next one tried),
    /// mirroring [`SimNet`](crate::SimNet).
    pub fn fire_next_timer(&mut self) -> bool {
        while let Some((&key, _)) = self.timers.iter().next() {
            let (machine, tag) = self.timers.remove(&key).expect("key just seen");
            debug_assert!(key.due >= self.now, "time went backwards");
            self.now = self.now.max(key.due);
            if self.machines.contains_key(&machine) {
                self.metrics.timers_fired += 1;
                self.invoke(machine, |a, ctx| a.on_timer(tag, ctx));
                return true;
            }
        }
        false
    }

    fn next_seq(&mut self) -> u64 {
        let s = self.seq;
        self.seq += 1;
        s
    }

    /// Allocates one causal stamp for a send action and records its
    /// [`TraceEvent::MsgSent`]. Stamp allocation is part of the
    /// deterministic driver state, so replaying a recorded schedule
    /// reproduces identical stamps.
    fn next_stamp(&mut self, src: MachineId, msg: &A::Msg) -> u64 {
        let stamp = self.stamps;
        self.stamps += 1;
        self.trace(
            src,
            TraceEvent::MsgSent {
                stamp,
                kind: A::msg_kind(msg),
                bytes: A::msg_size(msg),
            },
        );
        stamp
    }

    fn invoke(&mut self, id: MachineId, f: impl FnOnce(&mut A, &mut Ctx<'_, A::Msg>)) {
        let mut actions = Vec::new();
        {
            let actor = self.machines.get_mut(&id).expect("caller checked");
            let mut ctx = Ctx::new(self.now, id, &mut actions);
            f(actor, &mut ctx);
        }
        for action in actions {
            match action {
                Action::Broadcast(channel, msg) => {
                    let stamp = self.next_stamp(id, &msg);
                    let targets: Vec<MachineId> =
                        self.machines.keys().copied().filter(|&m| m != id).collect();
                    for to in targets {
                        let seq = self.next_seq();
                        self.metrics.sent += 1;
                        self.metrics.bytes_sent += A::msg_size(&msg);
                        self.pending.insert(
                            seq,
                            PendingMsg {
                                seq,
                                from: id,
                                to,
                                channel,
                                msg: msg.clone(),
                                stamp,
                            },
                        );
                    }
                }
                Action::Send(to, channel, msg) => {
                    let stamp = self.next_stamp(id, &msg);
                    let seq = self.next_seq();
                    self.metrics.sent += 1;
                    self.metrics.bytes_sent += A::msg_size(&msg);
                    self.pending.insert(
                        seq,
                        PendingMsg {
                            seq,
                            from: id,
                            to,
                            channel,
                            msg,
                            stamp,
                        },
                    );
                }
                Action::SetTimer { delay, tag } => {
                    let seq = self.next_seq();
                    self.timers.insert(
                        TimerKey {
                            due: self.now + delay,
                            seq,
                        },
                        (id, tag),
                    );
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Test actor: logs received payloads, replies to "ping", arms a timer
    /// on start.
    #[derive(Debug, Clone, PartialEq)]
    struct Probe {
        seen: Vec<&'static str>,
        timers: Vec<u64>,
    }
    impl Probe {
        fn new() -> Self {
            Probe {
                seen: Vec::new(),
                timers: Vec::new(),
            }
        }
    }
    impl Actor for Probe {
        type Msg = &'static str;
        fn on_start(&mut self, ctx: &mut Ctx<'_, &'static str>) {
            ctx.set_timer(SimTime::from_millis(10), 1);
        }
        fn on_message(
            &mut self,
            from: MachineId,
            channel: Channel,
            msg: &'static str,
            ctx: &mut Ctx<'_, &'static str>,
        ) {
            self.seen.push(msg);
            if msg == "ping" {
                ctx.send(from, channel, "pong");
            }
        }
        fn on_timer(&mut self, tag: u64, _: &mut Ctx<'_, &'static str>) {
            self.timers.push(tag);
        }
    }

    fn m(i: u32) -> MachineId {
        MachineId::new(i)
    }

    #[test]
    fn deliveries_wait_for_the_caller() {
        let mut net: SchedNet<Probe> = SchedNet::new();
        net.add_machine(m(0), Probe::new());
        net.add_machine(m(1), Probe::new());
        net.call(m(0), |_, ctx| ctx.send(m(1), Channel::Operations, "ping"));
        let pend = net.pending_msgs();
        assert_eq!(pend.len(), 1);
        assert!(net.actor(m(1)).unwrap().seen.is_empty());
        assert!(net.deliver(pend[0]));
        assert_eq!(net.actor(m(1)).unwrap().seen, vec!["ping"]);
        // The reply is now itself a pending choice.
        let reply = net.pending_msgs();
        assert_eq!(reply.len(), 1);
        let info = net.pending_msg(reply[0]).unwrap();
        assert_eq!((info.from, info.to), (m(1), m(0)));
        assert!(net.deliver(reply[0]));
        assert_eq!(net.actor(m(0)).unwrap().seen, vec!["pong"]);
        assert!(net.pending_msgs().is_empty());
    }

    #[test]
    fn any_delivery_order_is_expressible() {
        let mut net: SchedNet<Probe> = SchedNet::new();
        for i in 0..3 {
            net.add_machine(m(i), Probe::new());
        }
        net.call(m(0), |_, ctx| ctx.broadcast(Channel::Operations, "a"));
        net.call(m(0), |_, ctx| ctx.broadcast(Channel::Operations, "b"));
        // Four legs pending: a->1, a->2, b->1, b->2. Deliver b before a on
        // machine 1, a before b on machine 2.
        let pend = net.pending_msgs();
        assert_eq!(pend.len(), 4);
        let leg = |net: &SchedNet<Probe>, msg: &str, to: MachineId| {
            net.pending_msgs()
                .into_iter()
                .find(|&s| {
                    let p = net.pending_msg(s).unwrap();
                    p.msg == msg && p.to == to
                })
                .unwrap()
        };
        let b1 = leg(&net, "b", m(1));
        assert!(net.deliver(b1));
        let a1 = leg(&net, "a", m(1));
        assert!(net.deliver(a1));
        let a2 = leg(&net, "a", m(2));
        assert!(net.deliver(a2));
        let b2 = leg(&net, "b", m(2));
        assert!(net.deliver(b2));
        assert_eq!(net.actor(m(1)).unwrap().seen, vec!["b", "a"]);
        assert_eq!(net.actor(m(2)).unwrap().seen, vec!["a", "b"]);
    }

    #[test]
    fn drops_joins_and_duplicate_seqs() {
        let mut net: SchedNet<Probe> = SchedNet::new();
        net.add_machine(m(0), Probe::new());
        net.add_machine(m(1), Probe::new());
        net.call(m(0), |_, ctx| ctx.send(m(1), Channel::Operations, "x"));
        let s = net.pending_msgs()[0];
        assert!(net.drop_msg(s));
        assert!(!net.drop_msg(s), "a choice seq is consumed exactly once");
        assert!(!net.deliver(s));
        assert!(net.actor(m(1)).unwrap().seen.is_empty());

        let j = net.stage_join(m(2), Probe::new());
        assert_eq!(net.pending_join(j), Some(m(2)));
        assert_eq!(net.members().len(), 2);
        assert!(net.admit(j));
        assert!(!net.admit(j));
        assert_eq!(net.members().len(), 3);
    }

    #[test]
    fn timers_fire_in_due_order_and_advance_time() {
        let mut net: SchedNet<Probe> = SchedNet::new();
        net.add_machine(m(0), Probe::new()); // arms t=10ms on start
        net.call(m(0), |_, ctx| {
            ctx.set_timer(SimTime::from_millis(5), 2);
            ctx.set_timer(SimTime::from_millis(20), 3);
        });
        assert!(net.has_timers());
        assert_eq!(net.next_timer_due(), Some(SimTime::from_millis(5)));
        assert!(net.fire_next_timer());
        assert_eq!(net.now(), SimTime::from_millis(5));
        assert!(net.fire_next_timer());
        assert_eq!(net.now(), SimTime::from_millis(10));
        assert!(net.fire_next_timer());
        assert_eq!(net.now(), SimTime::from_millis(20));
        assert_eq!(net.actor(m(0)).unwrap().timers, vec![2, 1, 3]);
        assert!(!net.fire_next_timer());
    }

    #[test]
    fn metrics_track_choices() {
        let sz = std::mem::size_of::<&'static str>() as u64;
        let mut net: SchedNet<Probe> = SchedNet::new();
        net.add_machine(m(0), Probe::new()); // arms one timer on start
        net.add_machine(m(1), Probe::new());
        net.call(m(0), |_, ctx| ctx.send(m(1), Channel::Operations, "a"));
        net.call(m(0), |_, ctx| ctx.send(m(1), Channel::Operations, "b"));
        let pend = net.pending_msgs();
        assert_eq!(net.metrics().sent, 2);
        assert_eq!(net.metrics().bytes_sent, 2 * sz);
        net.deliver(pend[0]);
        net.drop_msg(pend[1]);
        net.fire_next_timer();
        let got = net.metrics();
        assert_eq!(got.delivered, 1);
        assert_eq!(got.bytes_delivered, sz);
        assert_eq!(got.dropped, 1);
        assert_eq!(got.timers_fired, 1);
    }

    #[test]
    fn tamper_hook_mutates_at_delivery() {
        let mut net: SchedNet<Probe> = SchedNet::new();
        net.add_machine(m(0), Probe::new());
        net.add_machine(m(1), Probe::new());
        net.set_tamper(Box::new(|_, _, _, msg: &mut &'static str| {
            if *msg == "x" {
                *msg = "mutated";
                true
            } else {
                false
            }
        }));
        net.call(m(0), |_, ctx| ctx.send(m(1), Channel::Operations, "x"));
        net.call(m(0), |_, ctx| ctx.send(m(1), Channel::Operations, "y"));
        for s in net.pending_msgs() {
            net.deliver(s);
        }
        assert_eq!(net.actor(m(1)).unwrap().seen, vec!["mutated", "y"]);
        assert_eq!(net.tamper_count(), 1);
    }

    /// Everything a step can change, for comparing two meshes.
    fn observe(net: &SchedNet<Probe>) -> impl PartialEq + std::fmt::Debug {
        let pending: Vec<_> = net
            .pending_msgs()
            .into_iter()
            .map(|s| {
                let p = net.pending_msg(s).unwrap();
                (p.seq, p.from, p.to, p.msg, p.stamp)
            })
            .collect();
        let actors: Vec<_> = net
            .members()
            .into_iter()
            .map(|id| (id, net.actor(id).unwrap().clone()))
            .collect();
        (
            pending,
            net.pending_joins(),
            net.next_timer_due(),
            net.now(),
            net.metrics(),
            net.tamper_count(),
            actors,
        )
    }

    /// Steps both meshes identically: deliver the lowest pending seq,
    /// otherwise admit the staged join, otherwise fire a timer.
    fn step(net: &mut SchedNet<Probe>) -> bool {
        if let Some(&s) = net.pending_msgs().first() {
            return net.deliver(s);
        }
        if let Some(&j) = net.pending_joins().first() {
            return net.admit(j);
        }
        net.fire_next_timer()
    }

    #[test]
    fn clone_forks_the_whole_mesh() {
        let mut net: SchedNet<Probe> = SchedNet::new();
        for i in 0..3 {
            net.add_machine(m(i), Probe::new());
        }
        // A stateful hook: rewrites only the second "ping" it sees, so a
        // fork must carry its own copy of the counter.
        let mut pings = 0u32;
        net.set_tamper(Box::new(move |_, _, _, msg: &mut &'static str| {
            if *msg != "ping" {
                return false;
            }
            pings += 1;
            if pings == 2 {
                *msg = "tampered";
            }
            pings == 2
        }));
        net.call(m(0), |_, ctx| ctx.broadcast(Channel::Operations, "ping"));
        net.call(m(2), |_, ctx| ctx.send(m(1), Channel::Operations, "ping"));
        let first = net.pending_msgs()[0];
        assert!(net.deliver(first));
        net.stage_join(m(3), Probe::new());

        // Mid-run: pending messages, armed timers, a staged join and one
        // ping already counted by the hook.
        assert!(!net.pending_msgs().is_empty());
        assert!(net.has_timers());
        assert_eq!(net.pending_joins().len(), 1);
        let mut fork = net.clone();
        assert_eq!(observe(&net), observe(&fork));

        let mut ran = 0;
        while step(&mut net) {
            assert!(step(&mut fork), "the fork diverged at step {ran}");
            assert_eq!(observe(&net), observe(&fork), "after step {ran}");
            ran += 1;
        }
        assert!(!step(&mut fork));
        assert!(ran > 6, "the lockstep run covered only {ran} steps");
        assert_eq!(net.tamper_count(), 1);
        assert_eq!(net.members().len(), 4, "the staged join was admitted");

        // A second fork from a fresh mid-run state, driven down a
        // different branch, leaves the original untouched.
        net.call(m(0), |_, ctx| ctx.broadcast(Channel::Operations, "ping"));
        let before = observe(&net);
        let mut fork = net.clone();
        let last = *fork.pending_msgs().last().unwrap();
        assert!(fork.drop_msg(last));
        assert!(step(&mut fork));
        fork.call(m(1), |_, ctx| ctx.send(m(2), Channel::Operations, "ping"));
        assert!(step(&mut fork));
        assert_ne!(observe(&fork), before);
        assert_eq!(observe(&net), before, "driving the fork moved the original");
    }
}
