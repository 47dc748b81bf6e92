//! A deterministic actor layer over the future-event list.
//!
//! Mail servers, hosts, and user interfaces are modelled as *actors*: state
//! machines that react to messages and timers. The engine delivers messages
//! after caller-chosen delays (the network substrate in `lems-net` computes
//! those delays from topology), fires timers, and injects crash/recovery
//! events from a [failure plan](crate::failure).
//!
//! Delivery semantics match the model assumed by the paper's §3.3.1A (and by
//! Gallager's MST algorithm): messages travel independently in both
//! directions on an edge and arrive after an unpredictable but finite delay,
//! *without error and in sequence*. In-sequence (FIFO) delivery per ordered
//! actor pair is enforced by default and can be disabled for experiments
//! that want reordering.

use std::collections::{BTreeSet, HashMap, HashSet};

use crate::linkfault::LinkFaultPlan;
use crate::prof::{Prof, ProfEvent, ProfSample};
use crate::queue::{EventQueue, QueueStats};
use crate::rng::SimRng;
use crate::sched::{ReadyEvent, ReadyKind, Scheduler};
use crate::stats::Counter;
use crate::time::{SimDuration, SimTime};
use crate::trace::{Trace, TraceKind};

/// Identifies an actor within one [`ActorSim`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct ActorId(pub usize);

impl ActorId {
    /// Pseudo-sender used for messages injected from outside the simulation
    /// (workload generators, test drivers).
    pub const EXTERNAL: ActorId = ActorId(usize::MAX);
}

impl std::fmt::Display for ActorId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if *self == ActorId::EXTERNAL {
            write!(f, "ext")
        } else {
            write!(f, "a{}", self.0)
        }
    }
}

/// Handle to a pending timer, used for cancellation.
///
/// Ordered so actors can key deterministic (`BTreeMap`) bookkeeping tables
/// by timer.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct TimerId(u64);

/// A simulated node: reacts to messages and timers via `&mut self`.
///
/// All methods receive a [`Ctx`] for reading the clock, sending messages,
/// and managing timers. Handlers run only while the actor is up; messages
/// and timers addressed to a crashed actor are silently dropped (and
/// counted), mirroring a failed mail server.
pub trait Actor: std::any::Any {
    /// The message type exchanged in this simulation.
    type Msg;

    /// Invoked once when the simulation starts (or when the actor is added
    /// to an already-running simulation).
    fn on_start(&mut self, ctx: &mut Ctx<'_, Self::Msg>) {
        let _ = ctx;
    }

    /// Invoked for each delivered message.
    fn on_message(&mut self, from: ActorId, msg: Self::Msg, ctx: &mut Ctx<'_, Self::Msg>);

    /// Invoked when a timer set via [`Ctx::set_timer`] fires. `tag` is the
    /// caller-chosen discriminant passed at arm time.
    fn on_timer(&mut self, id: TimerId, tag: u64, ctx: &mut Ctx<'_, Self::Msg>) {
        let _ = (id, tag, ctx);
    }

    /// Invoked at the instant the actor crashes, before it stops receiving
    /// events. Implementations typically discard volatile state here while
    /// keeping "stable storage" fields intact.
    fn on_crash(&mut self, now: SimTime) {
        let _ = now;
    }

    /// Invoked when the actor recovers. Timers do not survive a crash; this
    /// is the place to re-arm them.
    fn on_recover(&mut self, ctx: &mut Ctx<'_, Self::Msg>) {
        let _ = ctx;
    }

    /// A short static label grouping actors of the same role, used by the
    /// kernel profiler ([`prof`](crate::prof)) for per-(kind, event)
    /// dispatch attribution. Defaults to `"actor"`; override it for
    /// deployments mixing roles (servers, hosts, workload drivers).
    fn kind(&self) -> &'static str {
        "actor"
    }
}

enum Ev<M> {
    Deliver {
        from: ActorId,
        to: ActorId,
        msg: M,
    },
    Timer {
        actor: ActorId,
        id: TimerId,
        tag: u64,
    },
    Crash {
        actor: ActorId,
    },
    Recover {
        actor: ActorId,
    },
}

/// Counters describing one simulation run.
#[derive(Clone, Debug, Default)]
pub struct SimCounters {
    /// Messages handed to a live actor's `on_message`.
    pub delivered: Counter,
    /// Messages dropped because the destination was down.
    pub dropped_down: Counter,
    /// Messages dropped because the destination id was never registered.
    pub dropped_unknown: Counter,
    /// Messages lost on the wire by the link-fault plan (outage or
    /// probabilistic loss).
    pub dropped_link: Counter,
    /// Extra copies created by link-level duplication.
    pub duplicated: Counter,
    /// Timers that fired and reached a live actor.
    pub timers_fired: Counter,
    /// Timers suppressed by cancellation or by a crash.
    pub timers_suppressed: Counter,
    /// Crash events applied.
    pub crashes: Counter,
    /// Recovery events applied.
    pub recoveries: Counter,
}

/// Engine internals shared with handlers through [`Ctx`].
struct Core<M> {
    now: SimTime,
    queue: EventQueue<Ev<M>>,
    down: Vec<bool>,
    cancelled: HashSet<TimerId>,
    next_timer: u64,
    fifo: bool,
    last_arrival: HashMap<(ActorId, ActorId), SimTime>,
    counters: SimCounters,
    trace: Trace,
    rng: SimRng,
    link_faults: Option<LinkFaultPlan>,
    fault_rng: SimRng,
    scheduler: Option<Box<dyn Scheduler>>,
    prof: Prof,
}

impl<M> Core<M> {
    /// Engine state with all defaults, randomness derived from `seed`.
    fn new(seed: u64) -> Self {
        Core {
            now: SimTime::ZERO,
            queue: EventQueue::new(),
            down: Vec::new(),
            cancelled: HashSet::new(),
            next_timer: 0,
            fifo: true,
            last_arrival: HashMap::new(),
            counters: SimCounters::default(),
            trace: Trace::disabled(),
            rng: SimRng::seed(seed).fork("actor-sim"),
            link_faults: None,
            // A dedicated stream: enabling faults must not perturb the
            // randomness actors observe via `Ctx::rng`.
            fault_rng: SimRng::seed(seed).fork("link-faults"),
            scheduler: None,
            prof: Prof::default(),
        }
    }

    /// Queues a message for delivery after `delay` (FIFO clamp + trace).
    fn enqueue(&mut self, from: ActorId, to: ActorId, msg: M, delay: SimDuration) {
        let mut at = self.now + delay;
        // External injections model independent workload arrivals, not a
        // physical link, so they are exempt from FIFO clamping.
        if self.fifo && from != ActorId::EXTERNAL {
            // Clamp so a later send on the same ordered pair never overtakes
            // an earlier one ("without error and in sequence").
            let last = self.last_arrival.entry((from, to)).or_insert(SimTime::ZERO);
            if at < *last {
                at = *last;
            }
            *last = at;
        }
        self.trace.record(at, TraceKind::Send, from, to);
        self.queue.push(at, Ev::Deliver { from, to, msg });
    }

    fn send(&mut self, from: ActorId, to: ActorId, msg: M, delay: SimDuration)
    where
        M: Clone,
    {
        // Link faults apply only to real network hops: external injections
        // (workload arrivals) and self-sends (local processing stages) never
        // traverse a link.
        if let Some(plan) = &self.link_faults {
            if from != ActorId::EXTERNAL && from != to {
                let profile = plan.profile(from, to);
                let stochastic = plan.stochastic_active(self.now);
                let lost = !plan.is_link_up(from, to, self.now)
                    || (stochastic
                        && profile.drop_prob > 0.0
                        && self.fault_rng.chance(profile.drop_prob));
                if lost {
                    // Trace the send and its loss under the same
                    // (from, to, at) key so the conservation law "every send
                    // terminates in exactly one deliver-or-drop" still holds.
                    // The FIFO clamp is not updated: nothing arrives.
                    let at = self.now + delay;
                    self.counters.dropped_link.inc();
                    self.trace.record(at, TraceKind::Send, from, to);
                    self.trace.record(at, TraceKind::LinkDrop, from, to);
                    return;
                }
                let jitter = |rng: &mut SimRng| {
                    if stochastic && !profile.jitter.is_zero() {
                        SimDuration::from_ticks(rng.range(0..=profile.jitter.as_ticks()))
                    } else {
                        SimDuration::ZERO
                    }
                };
                let extra = jitter(&mut self.fault_rng);
                if stochastic && profile.dup_prob > 0.0 && self.fault_rng.chance(profile.dup_prob) {
                    // The duplicate takes its own jitter draw so the two
                    // copies land at distinct instants (FIFO still orders
                    // them per the clamp above).
                    let dup_extra = jitter(&mut self.fault_rng);
                    self.counters.duplicated.inc();
                    self.enqueue(from, to, msg.clone(), delay + dup_extra);
                }
                self.enqueue(from, to, msg, delay + extra);
                return;
            }
        }
        self.enqueue(from, to, msg, delay);
    }

    fn set_timer(&mut self, actor: ActorId, delay: SimDuration, tag: u64) -> TimerId {
        let id = TimerId(self.next_timer);
        self.next_timer += 1;
        self.queue
            .push(self.now + delay, Ev::Timer { actor, id, tag });
        id
    }

    /// Removes and returns the next event to fire.
    ///
    /// Without a scheduler this is a plain pop (lowest `(time, seq)`). With
    /// one installed, the ready set — every event at the earliest pending
    /// instant — is summarised into candidates and the scheduler picks.
    /// FIFO link order is enforced *before* the scheduler sees anything:
    /// for deliveries on a real link, only the oldest pending message per
    /// ordered `(from, to)` pair is a candidate, so no schedule can violate
    /// the in-sequence delivery assumption. External injections model
    /// independent arrivals and are each freely orderable.
    fn pop_next(&mut self) -> Option<(SimTime, Ev<M>)> {
        if self.scheduler.is_none() {
            return self.queue.pop();
        }
        let mut lanes: BTreeSet<(ActorId, ActorId)> = BTreeSet::new();
        let mut candidates: Vec<ReadyEvent> = Vec::new();
        for (at, seq, ev) in self.queue.ready() {
            let (kind, target, from) = match ev {
                Ev::Deliver { from, to, .. } => {
                    if self.fifo && *from != ActorId::EXTERNAL && !lanes.insert((*from, *to)) {
                        // Not the lane head: an older message on the same
                        // ordered pair must fire first.
                        continue;
                    }
                    (ReadyKind::Deliver, *to, *from)
                }
                Ev::Timer { actor, .. } => (ReadyKind::Timer, *actor, *actor),
                Ev::Crash { actor } => (ReadyKind::Crash, *actor, *actor),
                Ev::Recover { actor } => (ReadyKind::Recover, *actor, *actor),
            };
            candidates.push(ReadyEvent {
                seq,
                at,
                kind,
                target,
                from,
            });
        }
        let chosen = match candidates.len() {
            0 => return None,
            1 => candidates[0],
            n => {
                let idx = self
                    .scheduler
                    .as_mut()
                    .map_or(0, |s| s.choose(&candidates))
                    .min(n - 1);
                candidates[idx]
            }
        };
        let ev = self.queue.remove(chosen.at, chosen.seq)?;
        Some((chosen.at, ev))
    }
}

/// Handler-side view of the engine: clock, messaging, timers, randomness.
///
/// Effects apply to the engine immediately: a message sent here is already
/// queued when the handler returns.
pub struct Ctx<'a, M> {
    core: &'a mut Core<M>,
    me: ActorId,
}

impl<M> Ctx<'_, M> {
    /// The current simulated time.
    pub fn now(&self) -> SimTime {
        self.core.now
    }

    /// The id of the actor whose handler is running.
    pub fn me(&self) -> ActorId {
        self.me
    }

    /// Sends `msg` to `to`, arriving after `delay`.
    ///
    /// The delay models transmission + propagation on the path between the
    /// two nodes; the network substrate computes it from topology. With FIFO
    /// links enabled (the default) arrival order per ordered pair matches
    /// send order even if later sends carry smaller delays.
    pub fn send(&mut self, to: ActorId, msg: M, delay: SimDuration)
    where
        M: Clone,
    {
        self.core.send(self.me, to, msg, delay);
    }

    /// Sends `msg` to the actor itself after `delay` — a convenience for
    /// modelling local processing stages. Self-sends never traverse a link,
    /// so link faults do not apply.
    pub fn send_self(&mut self, msg: M, delay: SimDuration) {
        self.core.enqueue(self.me, self.me, msg, delay);
    }

    /// Arms a timer that fires after `delay`, delivering `tag` to
    /// [`Actor::on_timer`].
    pub fn set_timer(&mut self, delay: SimDuration, tag: u64) -> TimerId {
        self.core.set_timer(self.me, delay, tag)
    }

    /// Cancels a pending timer. Cancelling an already-fired or foreign timer
    /// is a no-op.
    pub fn cancel_timer(&mut self, id: TimerId) {
        self.core.cancelled.insert(id);
    }

    /// Deterministic randomness: a single stream scoped to the whole
    /// simulation, derived from the engine seed.
    pub fn rng(&mut self) -> &mut SimRng {
        &mut self.core.rng
    }

    /// True if `actor` is currently crashed.
    ///
    /// Real mail software cannot ask this oracle; it exists for workload
    /// drivers and for assertions in tests. Protocol actors should rely on
    /// timeouts instead.
    pub fn is_down(&self, actor: ActorId) -> bool {
        self.core.down.get(actor.0).copied().unwrap_or(false)
    }
}

/// The deterministic actor simulation engine.
///
/// # Examples
///
/// A two-actor ping-pong:
///
/// ```
/// use lems_sim::actor::{Actor, ActorId, ActorSim, Ctx};
/// use lems_sim::time::{SimDuration, SimTime};
///
/// struct Pinger { peer: Option<ActorId>, bounces: u32 }
/// impl Actor for Pinger {
///     type Msg = u32;
///     fn on_start(&mut self, ctx: &mut Ctx<'_, u32>) {
///         if let Some(peer) = self.peer {
///             ctx.send(peer, 0, SimDuration::from_units(1.0));
///         }
///     }
///     fn on_message(&mut self, from: ActorId, n: u32, ctx: &mut Ctx<'_, u32>) {
///         self.bounces += 1;
///         if n < 5 {
///             ctx.send(from, n + 1, SimDuration::from_units(1.0));
///         }
///     }
/// }
///
/// let mut sim = ActorSim::new(42);
/// let a = sim.add_actor(Pinger { peer: None, bounces: 0 });
/// let b = sim.add_actor(Pinger { peer: Some(a), bounces: 0 });
/// # let _ = b;
/// sim.run_to_quiescence();
/// assert_eq!(sim.now(), SimTime::from_units(6.0));
/// ```
pub struct ActorSim<M> {
    core: Core<M>,
    actors: Vec<Option<Box<dyn Actor<Msg = M>>>>,
    started: Vec<bool>,
    running: bool,
}

impl<M: 'static> ActorSim<M> {
    /// Creates an engine whose randomness derives from `seed`.
    pub fn new(seed: u64) -> Self {
        ActorSim {
            core: Core::new(seed),
            actors: Vec::new(),
            started: Vec::new(),
            running: false,
        }
    }

    /// Disables per-pair FIFO delivery, allowing messages to reorder when
    /// delays differ.
    pub fn without_fifo_links(mut self) -> Self {
        self.core.fifo = false;
        self
    }

    /// Enables bounded in-memory event tracing (for debugging and tests).
    pub fn with_trace(mut self, capacity: usize) -> Self {
        self.core.trace = Trace::bounded(capacity);
        self
    }

    /// Enables tracing on an already-built engine, replacing any existing
    /// trace. Unlike [`ActorSim::with_trace`] this works after actors have
    /// been registered, so deployment builders that own the engine can have
    /// tracing switched on by their callers. A `capacity` of `usize::MAX`
    /// keeps the complete event history (see [`Trace::unbounded`]), which
    /// trace auditors require.
    pub fn enable_trace(&mut self, capacity: usize) {
        self.core.trace = Trace::bounded(capacity);
    }

    /// Enables the kernel profiler ([`prof`](crate::prof)). Profiling
    /// changes no output byte of the run — dispatch attribution, queue
    /// depth samples, and pool counters derive from sim time and counts
    /// only (pinned by `tests/prof_digest.rs`).
    pub fn enable_prof(&mut self) {
        self.core.prof.enable();
    }

    /// The kernel profiler's accumulated state.
    pub fn prof(&self) -> &Prof {
        &self.core.prof
    }

    /// Renders the profiler state as a deterministic sample list, folding
    /// in the current queue-structure snapshot. Empty when profiling is
    /// off.
    pub fn profile_samples(&self) -> Vec<ProfSample> {
        self.core.prof.samples(self.core.queue.stats())
    }

    /// A structural snapshot of the future-event list (depth, calendar
    /// ring, payload-pool counters).
    pub fn queue_stats(&self) -> QueueStats {
        self.core.queue.stats()
    }

    /// Registers an actor; returns its id. `on_start` runs at the current
    /// simulation time the next time the engine advances.
    pub fn add_actor<A>(&mut self, actor: A) -> ActorId
    where
        A: Actor<Msg = M> + 'static,
    {
        let id = ActorId(self.actors.len());
        self.core.prof.register_kind(actor.kind());
        self.actors.push(Some(Box::new(actor)));
        self.core.down.push(false);
        self.started.push(false);
        id
    }

    /// Number of registered actors.
    pub fn actor_count(&self) -> usize {
        self.actors.len()
    }

    /// The current simulated time.
    pub fn now(&self) -> SimTime {
        self.core.now
    }

    /// Counters accumulated so far.
    pub fn counters(&self) -> &SimCounters {
        &self.core.counters
    }

    /// The bounded trace, if enabled.
    pub fn trace(&self) -> &Trace {
        &self.core.trace
    }

    /// Injects a message from outside the simulation, delivered to `to` at
    /// `now + delay`. Injections model workload arrivals, not link traffic,
    /// so link faults do not apply.
    pub fn inject(&mut self, to: ActorId, msg: M, delay: SimDuration) {
        self.core.enqueue(ActorId::EXTERNAL, to, msg, delay);
    }

    /// Installs (or replaces) the link-fault plan consulted on every
    /// actor-to-actor send. See [`LinkFaultPlan`] for the fault taxonomy.
    pub fn set_link_faults(&mut self, plan: LinkFaultPlan) {
        self.core.link_faults = Some(plan);
    }

    /// Removes the link-fault plan; subsequent sends travel a perfect wire.
    pub fn clear_link_faults(&mut self) {
        self.core.link_faults = None;
    }

    /// Installs (or replaces) the event [`Scheduler`] consulted whenever
    /// two or more events are ready at the same instant. Without one, the
    /// engine fires events in scheduling order ([`FifoScheduler`]
    /// semantics, zero overhead).
    ///
    /// [`FifoScheduler`]: crate::sched::FifoScheduler
    pub fn set_scheduler(&mut self, scheduler: Box<dyn Scheduler>) {
        self.core.scheduler = Some(scheduler);
    }

    /// Removes the scheduler; the engine reverts to plain FIFO order.
    pub fn clear_scheduler(&mut self) {
        self.core.scheduler = None;
    }

    /// The installed link-fault plan, if any.
    pub fn link_faults(&self) -> Option<&LinkFaultPlan> {
        self.core.link_faults.as_ref()
    }

    /// Schedules `actor` to crash at `at` (no-op if already down then).
    pub fn schedule_crash(&mut self, actor: ActorId, at: SimTime) {
        self.core.queue.push(at, Ev::Crash { actor });
    }

    /// Schedules `actor` to recover at `at` (no-op if already up then).
    pub fn schedule_recover(&mut self, actor: ActorId, at: SimTime) {
        self.core.queue.push(at, Ev::Recover { actor });
    }

    /// True if `actor` is currently crashed.
    pub fn is_down(&self, actor: ActorId) -> bool {
        self.core.down.get(actor.0).copied().unwrap_or(false)
    }

    /// Immutable access to an actor's state (for assertions and metrics).
    ///
    /// Returns `None` if the id is unknown or the actor's concrete type is
    /// not `A`.
    pub fn actor<A>(&self, id: ActorId) -> Option<&A>
    where
        A: Actor<Msg = M> + 'static,
        M: 'static,
    {
        self.actors
            .get(id.0)
            .and_then(|slot| slot.as_deref())
            .and_then(|a| (a as &dyn std::any::Any).downcast_ref::<A>())
    }

    /// Mutable access to an actor's state between runs (e.g. for
    /// reconfiguration drivers).
    pub fn actor_mut<A>(&mut self, id: ActorId) -> Option<&mut A>
    where
        A: Actor<Msg = M> + 'static,
        M: 'static,
    {
        self.actors
            .get_mut(id.0)
            .and_then(|slot| slot.as_deref_mut())
            .and_then(|a| (a as &mut dyn std::any::Any).downcast_mut::<A>())
    }

    fn start_pending(&mut self) {
        for idx in 0..self.actors.len() {
            if !self.started[idx] {
                self.started[idx] = true;
                self.with_actor(ActorId(idx), Actor::on_start);
            }
        }
    }

    fn with_actor<R>(
        &mut self,
        id: ActorId,
        f: impl FnOnce(&mut dyn Actor<Msg = M>, &mut Ctx<'_, M>) -> R,
    ) -> Option<R> {
        let mut boxed = self.actors.get_mut(id.0)?.take()?;
        let mut ctx = Ctx {
            core: &mut self.core,
            me: id,
        };
        let out = f(boxed.as_mut(), &mut ctx);
        self.actors[id.0] = Some(boxed);
        Some(out)
    }

    /// Processes one event. Returns `false` when the queue is empty.
    pub fn step(&mut self) -> bool {
        if !self.running {
            self.running = true;
        }
        self.start_pending();
        let Some((at, ev)) = self.core.pop_next() else {
            return false;
        };
        debug_assert!(at >= self.core.now, "time went backwards");
        self.core.now = at;
        // Each arm yields the profiler disposition: the target actor index
        // and the event class the dispatch resolved to (`None` for silent
        // no-ops, which the profiler — like the counters — ignores).
        let hook: Option<(usize, ProfEvent)> = match ev {
            Ev::Deliver { from, to, msg } => {
                if to.0 >= self.actors.len() {
                    self.core.counters.dropped_unknown.inc();
                    // Traced as a drop so every traced send still terminates
                    // in exactly one deliver-or-drop (conservation law).
                    self.core.trace.record(at, TraceKind::Drop, from, to);
                    Some((to.0, ProfEvent::DropUnknown))
                } else if self.core.down[to.0] {
                    self.core.counters.dropped_down.inc();
                    self.core.trace.record(at, TraceKind::Drop, from, to);
                    Some((to.0, ProfEvent::DropDown))
                } else {
                    self.core.counters.delivered.inc();
                    self.core.trace.record(at, TraceKind::Deliver, from, to);
                    self.with_actor(to, |actor, ctx| actor.on_message(from, msg, ctx));
                    Some((to.0, ProfEvent::Deliver))
                }
            }
            Ev::Timer { actor, id, tag } => {
                let cancelled = self.core.cancelled.remove(&id);
                if cancelled || actor.0 >= self.actors.len() || self.core.down[actor.0] {
                    self.core.counters.timers_suppressed.inc();
                    Some((actor.0, ProfEvent::TimerSuppressed))
                } else {
                    self.core.counters.timers_fired.inc();
                    self.with_actor(actor, |a, ctx| a.on_timer(id, tag, ctx));
                    Some((actor.0, ProfEvent::TimerFired))
                }
            }
            Ev::Crash { actor } => {
                if actor.0 < self.actors.len() && !self.core.down[actor.0] {
                    self.core.down[actor.0] = true;
                    self.core.counters.crashes.inc();
                    self.core.trace.record(at, TraceKind::Crash, actor, actor);
                    if let Some(slot) = self.actors.get_mut(actor.0) {
                        if let Some(a) = slot.as_deref_mut() {
                            a.on_crash(at);
                        }
                    }
                    Some((actor.0, ProfEvent::Crash))
                } else {
                    None
                }
            }
            Ev::Recover { actor } => {
                if actor.0 < self.actors.len() && self.core.down[actor.0] {
                    self.core.down[actor.0] = false;
                    self.core.counters.recoveries.inc();
                    self.core.trace.record(at, TraceKind::Recover, actor, actor);
                    self.with_actor(actor, Actor::on_recover);
                    Some((actor.0, ProfEvent::Recover))
                } else {
                    None
                }
            }
        };
        if self.core.prof.is_enabled() {
            if let Some((idx, pe)) = hook {
                let depth = self.core.queue.len() as u64;
                self.core.prof.dispatch(idx, pe, at, depth);
            }
        }
        true
    }

    /// Runs until the queue is empty or the next event is later than
    /// `deadline`; the clock then rests at `min(deadline, last event time)`.
    pub fn run_until(&mut self, deadline: SimTime) {
        self.core.prof.wall_start();
        self.start_pending();
        while let Some(t) = self.core.queue.peek_time() {
            if t > deadline {
                break;
            }
            self.step();
        }
        if self.core.now < deadline {
            self.core.now = deadline;
        }
        self.core.prof.wall_stop();
    }

    /// Runs until no events remain.
    ///
    /// # Panics
    ///
    /// Panics if more than `u64::MAX` events are processed (practically:
    /// never), protecting against livelock in misbehaving actors via the
    /// explicit [`ActorSim::run_to_quiescence_bounded`] variant instead.
    pub fn run_to_quiescence(&mut self) {
        self.core.prof.wall_start();
        while self.step() {}
        self.core.prof.wall_stop();
    }

    /// Runs until quiescence or until `max_events` have been processed.
    /// Returns `true` if the simulation quiesced.
    pub fn run_to_quiescence_bounded(&mut self, max_events: u64) -> bool {
        self.core.prof.wall_start();
        let mut quiesced = false;
        for _ in 0..max_events {
            if !self.step() {
                quiesced = true;
                break;
            }
        }
        self.core.prof.wall_stop();
        quiesced || self.core.queue.is_empty()
    }
}

impl<M> std::fmt::Debug for ActorSim<M> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ActorSim")
            .field("now", &self.core.now)
            .field("actors", &self.actors.len())
            .field("pending_events", &self.core.queue.len())
            .field("counters", &self.core.counters)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Default)]
    struct Recorder {
        seen: Vec<(SimTime, u32)>,
        timer_tags: Vec<u64>,
        recovered: u32,
    }

    impl Actor for Recorder {
        type Msg = u32;
        fn on_message(&mut self, _from: ActorId, msg: u32, ctx: &mut Ctx<'_, u32>) {
            self.seen.push((ctx.now(), msg));
        }
        fn on_timer(&mut self, _id: TimerId, tag: u64, _ctx: &mut Ctx<'_, u32>) {
            self.timer_tags.push(tag);
        }
        fn on_recover(&mut self, _ctx: &mut Ctx<'_, u32>) {
            self.recovered += 1;
        }
    }

    fn unit(u: f64) -> SimDuration {
        SimDuration::from_units(u)
    }

    #[test]
    fn injected_messages_arrive_in_order() {
        let mut sim = ActorSim::new(1);
        let r = sim.add_actor(Recorder::default());
        sim.inject(r, 10, unit(2.0));
        sim.inject(r, 20, unit(1.0));
        sim.run_to_quiescence();
        let rec: &Recorder = sim.actor(r).unwrap();
        assert_eq!(
            rec.seen,
            vec![
                (SimTime::from_units(1.0), 20),
                (SimTime::from_units(2.0), 10)
            ]
        );
    }

    /// Sends two messages to `target` back-to-back, the second with a
    /// smaller delay than the first.
    struct BurstSender {
        target: ActorId,
    }
    impl Actor for BurstSender {
        type Msg = u32;
        fn on_start(&mut self, ctx: &mut Ctx<'_, u32>) {
            ctx.send(self.target, 1, unit(5.0));
            ctx.send(self.target, 2, unit(1.0));
        }
        fn on_message(&mut self, _f: ActorId, _m: u32, _c: &mut Ctx<'_, u32>) {}
    }

    #[test]
    fn fifo_links_prevent_overtaking() {
        let mut sim = ActorSim::new(1);
        let r = sim.add_actor(Recorder::default());
        let _ = sim.add_actor(BurstSender { target: r });
        sim.run_to_quiescence();
        let rec: &Recorder = sim.actor(r).unwrap();
        assert_eq!(rec.seen[0].1, 1);
        assert_eq!(rec.seen[1].1, 2);
        assert_eq!(rec.seen[1].0, SimTime::from_units(5.0), "clamped to FIFO");
    }

    #[test]
    fn without_fifo_allows_overtaking() {
        let mut sim = ActorSim::new(1).without_fifo_links();
        let r = sim.add_actor(Recorder::default());
        let _ = sim.add_actor(BurstSender { target: r });
        sim.run_to_quiescence();
        let rec: &Recorder = sim.actor(r).unwrap();
        assert_eq!(rec.seen[0].1, 2);
    }

    #[test]
    fn crashed_actor_drops_messages_then_recovers() {
        let mut sim = ActorSim::new(1);
        let r = sim.add_actor(Recorder::default());
        sim.schedule_crash(r, SimTime::from_units(1.0));
        sim.schedule_recover(r, SimTime::from_units(3.0));
        sim.inject(r, 99, unit(2.0)); // lands while down -> dropped
        sim.inject(r, 7, unit(4.0)); // lands after recovery
        sim.run_to_quiescence();
        let rec: &Recorder = sim.actor(r).unwrap();
        assert_eq!(rec.seen.len(), 1);
        assert_eq!(rec.seen[0].1, 7);
        assert_eq!(rec.recovered, 1);
        assert_eq!(sim.counters().dropped_down.get(), 1);
        assert_eq!(sim.counters().crashes.get(), 1);
        assert_eq!(sim.counters().recoveries.get(), 1);
    }

    struct TimerSetter;
    impl Actor for TimerSetter {
        type Msg = u32;
        fn on_start(&mut self, ctx: &mut Ctx<'_, u32>) {
            let keep = ctx.set_timer(unit(1.0), 1);
            let cancel = ctx.set_timer(unit(2.0), 2);
            ctx.cancel_timer(cancel);
            let _ = keep;
        }
        fn on_message(&mut self, _f: ActorId, _m: u32, _c: &mut Ctx<'_, u32>) {}
    }

    #[test]
    fn cancelled_timers_do_not_fire() {
        let mut sim = ActorSim::new(1);
        let _ = sim.add_actor(TimerSetter);
        sim.run_to_quiescence();
        assert_eq!(sim.counters().timers_fired.get(), 1);
        assert_eq!(sim.counters().timers_suppressed.get(), 1);
    }

    #[test]
    fn run_until_stops_clock_at_deadline() {
        let mut sim: ActorSim<u32> = ActorSim::new(1);
        let r = sim.add_actor(Recorder::default());
        sim.inject(r, 1, unit(10.0));
        sim.run_until(SimTime::from_units(4.0));
        assert_eq!(sim.now(), SimTime::from_units(4.0));
        sim.run_until(SimTime::from_units(20.0));
        let rec: &Recorder = sim.actor(r).unwrap();
        assert_eq!(rec.seen.len(), 1);
        assert_eq!(sim.now(), SimTime::from_units(20.0));
    }

    #[test]
    fn determinism_same_seed_same_counters() {
        fn run(seed: u64) -> (u64, SimTime) {
            let mut sim = ActorSim::new(seed);
            let r = sim.add_actor(Recorder::default());
            let mut delays: Vec<f64> = Vec::new();
            {
                // Use engine-independent rng for the workload.
                let mut rng = SimRng::seed(seed).fork("wl");
                for _ in 0..100 {
                    delays.push(rng.unit() * 10.0);
                }
            }
            for (i, d) in delays.into_iter().enumerate() {
                sim.inject(r, i as u32, unit(d));
            }
            sim.run_to_quiescence();
            (sim.counters().delivered.get(), sim.now())
        }
        assert_eq!(run(9), run(9));
        assert_ne!(run(9).1, run(10).1);
    }

    #[test]
    fn bounded_run_reports_quiescence() {
        let mut sim: ActorSim<u32> = ActorSim::new(1);
        let r = sim.add_actor(Recorder::default());
        for i in 0..10 {
            sim.inject(r, i, unit(i as f64));
        }
        assert!(!sim.run_to_quiescence_bounded(3));
        assert!(sim.run_to_quiescence_bounded(100));
    }

    #[test]
    fn unknown_destination_is_counted() {
        let mut sim: ActorSim<u32> = ActorSim::new(1);
        sim.inject(ActorId(999), 1, unit(1.0));
        sim.run_to_quiescence();
        assert_eq!(sim.counters().dropped_unknown.get(), 1);
    }

    /// Relays every received message to `target` after 1 unit.
    struct Relay {
        target: ActorId,
    }
    impl Actor for Relay {
        type Msg = u32;
        fn on_message(&mut self, _f: ActorId, m: u32, ctx: &mut Ctx<'_, u32>) {
            ctx.send(self.target, m, unit(1.0));
        }
    }

    #[test]
    fn link_outage_drops_wire_traffic_but_not_injections() {
        use crate::linkfault::LinkFaultPlan;
        let mut sim = ActorSim::new(1);
        let r = sim.add_actor(Recorder::default());
        let relay = sim.add_actor(Relay { target: r });
        let mut plan = LinkFaultPlan::new();
        plan.add_link_outage(relay, r, SimTime::ZERO, SimTime::from_units(10.0))
            .unwrap();
        sim.set_link_faults(plan);
        sim.enable_trace(usize::MAX);
        // Injection reaches the relay (injections are exempt), but the
        // relay's forward crosses the dead link and is lost.
        sim.inject(relay, 5, unit(1.0));
        // After the outage lifts, the same route works.
        sim.inject(relay, 6, unit(11.0));
        sim.run_to_quiescence();
        let rec: &Recorder = sim.actor(r).unwrap();
        assert_eq!(rec.seen.len(), 1);
        assert_eq!(rec.seen[0].1, 6);
        assert_eq!(sim.counters().dropped_link.get(), 1);
        // Conservation: every traced send has a deliver or a drop.
        let sends = sim
            .trace()
            .events()
            .filter(|e| e.kind == TraceKind::Send)
            .count();
        let ends = sim
            .trace()
            .events()
            .filter(|e| {
                matches!(
                    e.kind,
                    TraceKind::Deliver | TraceKind::Drop | TraceKind::LinkDrop
                )
            })
            .count();
        assert_eq!(sends, ends);
    }

    #[test]
    fn certain_loss_loses_everything_on_the_wire() {
        use crate::linkfault::{LinkFaultPlan, LinkProfile};
        let mut sim = ActorSim::new(1);
        let r = sim.add_actor(Recorder::default());
        let relay = sim.add_actor(Relay { target: r });
        sim.set_link_faults(
            LinkFaultPlan::new()
                .with_default_profile(LinkProfile::new(1.0, 0.0, SimDuration::ZERO).unwrap()),
        );
        for i in 0..10 {
            sim.inject(relay, i, unit(i as f64));
        }
        sim.run_to_quiescence();
        let rec: &Recorder = sim.actor(r).unwrap();
        assert!(rec.seen.is_empty());
        assert_eq!(sim.counters().dropped_link.get(), 10);
    }

    #[test]
    fn certain_duplication_doubles_delivery() {
        use crate::linkfault::{LinkFaultPlan, LinkProfile};
        let mut sim = ActorSim::new(1);
        let r = sim.add_actor(Recorder::default());
        let relay = sim.add_actor(Relay { target: r });
        sim.set_link_faults(
            LinkFaultPlan::new()
                .with_default_profile(LinkProfile::new(0.0, 1.0, SimDuration::ZERO).unwrap()),
        );
        sim.inject(relay, 7, unit(1.0));
        sim.run_to_quiescence();
        let rec: &Recorder = sim.actor(r).unwrap();
        assert_eq!(rec.seen.len(), 2, "original + duplicate");
        assert_eq!(sim.counters().duplicated.get(), 1);
    }

    #[test]
    fn self_sends_bypass_link_faults() {
        use crate::linkfault::{LinkFaultPlan, LinkProfile};
        struct SelfLooper {
            got: u32,
        }
        impl Actor for SelfLooper {
            type Msg = u32;
            fn on_start(&mut self, ctx: &mut Ctx<'_, u32>) {
                ctx.send_self(3, unit(1.0));
            }
            fn on_message(&mut self, _f: ActorId, m: u32, _c: &mut Ctx<'_, u32>) {
                self.got = m;
            }
        }
        let mut sim = ActorSim::new(1);
        let a = sim.add_actor(SelfLooper { got: 0 });
        sim.set_link_faults(
            LinkFaultPlan::new()
                .with_default_profile(LinkProfile::new(1.0, 0.0, SimDuration::ZERO).unwrap()),
        );
        sim.run_to_quiescence();
        let looper: &SelfLooper = sim.actor(a).unwrap();
        assert_eq!(looper.got, 3);
        assert_eq!(sim.counters().dropped_link.get(), 0);
    }

    #[test]
    fn link_faults_are_deterministic_per_seed() {
        use crate::linkfault::{LinkFaultPlan, LinkProfile};
        fn run(seed: u64) -> (u64, u64, u64, SimTime) {
            let mut sim = ActorSim::new(seed);
            let r = sim.add_actor(Recorder::default());
            let relay = sim.add_actor(Relay { target: r });
            sim.set_link_faults(LinkFaultPlan::new().with_default_profile(
                LinkProfile::new(0.3, 0.1, SimDuration::from_units(0.5)).unwrap(),
            ));
            for i in 0..200 {
                sim.inject(relay, i, unit(i as f64 * 0.1));
            }
            sim.run_to_quiescence();
            (
                sim.counters().delivered.get(),
                sim.counters().dropped_link.get(),
                sim.counters().duplicated.get(),
                sim.now(),
            )
        }
        assert_eq!(run(11), run(11));
        assert_ne!(run(11), run(12));
    }
}
