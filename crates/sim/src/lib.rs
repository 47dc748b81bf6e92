//! # lems-sim — deterministic discrete-event simulation kernel
//!
//! Simulation substrate for the `lems` workspace, a reproduction of
//! *"Designing Large Electronic Mail Systems"* (Bahaa-El-Din & Yuen,
//! ICDCS 1988). The paper evaluated its algorithms "using simulation"; this
//! crate provides that simulator as a reusable library:
//!
//! * [`time`] — integer simulated time in paper "time units";
//! * [`queue`] — the future-event list with deterministic FIFO tie-breaks:
//!   an amortized-O(1) calendar queue, plus the ordered-map oracle that
//!   tests and benchmarks compare it against;
//! * [`pool`] — the generation-checked payload slab behind the queue;
//! * [`actor`] — the simulation engine: message-passing actors with timers,
//!   matching the delivery model assumed by the paper (finite, in-sequence,
//!   error-free links);
//! * [`failure`] — planned and random crash/repair injection;
//! * [`linkfault`] — link-level outages, partitions, loss, duplication and
//!   delay jitter on actor-to-actor sends;
//! * [`session`] — ack/timeout/retransmit policy with capped backoff;
//! * [`sched`] — pluggable schedulers: FIFO replay, seeded schedule
//!   fuzzing, and exhaustive small-scope interleaving exploration;
//! * [`prof`] — a deterministic kernel profiler (dispatch attribution,
//!   queue health) that changes no output byte;
//! * [`rng`] — seeded, forkable randomness so runs reproduce exactly;
//! * [`stats`] — counters, time-weighted gauges, summaries, histograms;
//! * [`trace`] — bounded in-memory event tracing;
//! * [`span`] — causal message-lifecycle spans with a conservation auditor;
//! * [`metrics`] — per-actor registries of counters, gauges, and
//!   log-scale latency histograms, mergeable across actors and threads.
//!
//! Everything is deterministic by construction: a run is a pure function of
//! its seed and configuration. There is one engine, [`ActorSim`], and it is
//! single-threaded; independent seeds and scenarios are what run side by
//! side.
//!
//! [`ActorSim`]: actor::ActorSim
//!
//! # Examples
//!
//! ```
//! use lems_sim::prelude::*;
//!
//! struct Echo;
//! impl Actor for Echo {
//!     type Msg = &'static str;
//!     fn on_message(&mut self, from: ActorId, msg: &'static str, ctx: &mut Ctx<'_, &'static str>) {
//!         if msg == "ping" && from != ActorId::EXTERNAL {
//!             ctx.send(from, "pong", SimDuration::from_units(1.0));
//!         }
//!     }
//! }
//!
//! let mut sim = ActorSim::new(7);
//! let echo = sim.add_actor(Echo);
//! sim.inject(echo, "ping", SimDuration::from_units(0.5));
//! sim.run_to_quiescence();
//! assert_eq!(sim.counters().delivered.get(), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod actor;
pub mod failure;
pub mod linkfault;
pub mod metrics;
pub mod pool;
pub mod prof;
pub mod queue;
pub mod rng;
pub mod sched;
pub mod session;
pub mod span;
pub mod stats;
pub mod time;
pub mod trace;

/// Convenient glob-import of the most used simulation types.
pub mod prelude {
    pub use crate::actor::{Actor, ActorId, ActorSim, Ctx, TimerId};
    pub use crate::failure::{FailureError, FailurePlan};
    pub use crate::linkfault::{LinkFaultPlan, LinkProfile};
    pub use crate::metrics::MetricsRegistry;
    pub use crate::rng::SimRng;
    pub use crate::sched::{
        ExploreBounds, Explorer, FifoScheduler, RandomScheduler, ReplayScheduler, Schedule,
        Scheduler,
    };
    pub use crate::session::RetryPolicy;
    pub use crate::span::{SpanEvent, SpanId, SpanLog, SpanStage};
    pub use crate::stats::{Counter, Histogram, LogHistogram, Summary, TimeWeighted};
    pub use crate::time::{SimDuration, SimTime};
}
