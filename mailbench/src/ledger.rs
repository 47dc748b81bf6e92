//! The traced run's ledger, kept from outside the program: wall-clock spans
//! around each call into a layer, and a run phase driven one
//! `ActorSim::step` at a time with every step's time binned by what it
//! dispatched.

use std::fmt::Write as _;
use std::time::Instant;

use lems_sim::actor::{ActorId, ActorSim};
use lems_sim::trace::TraceKind;

/// One closed span: a named interval and the span it ran inside.
struct Span {
    name: &'static str,
    parent: Option<usize>,
    start_s: f64,
    end_s: f64,
}

/// An in-memory span recorder. Spans nest by call order; they are written
/// out as JSONL only when the benchmark ends.
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Recorder {
    pub fn new() -> Self {
        Recorder {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Runs `f` inside a span called `name` and returns its result.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> R) -> R {
        let idx = self.spans.len();
        let start_s = self.origin.elapsed().as_secs_f64();
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            start_s,
            end_s: start_s,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end_s = self.origin.elapsed().as_secs_f64();
        out
    }

    /// Duration of the most recent span called `name` (0 when none ran).
    pub fn last(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .rev()
            .find(|s| s.name == name)
            .map_or(0.0, |s| s.end_s - s.start_s)
    }

    /// A span's duration minus the time its direct children cover. Children
    /// run one after another on this single thread, so their durations add
    /// without overlap.
    fn self_time(&self, idx: usize) -> f64 {
        let s = &self.spans[idx];
        let covered: f64 = self
            .spans
            .iter()
            .filter(|c| c.parent == Some(idx))
            .map(|c| c.end_s - c.start_s)
            .sum();
        s.end_s - s.start_s - covered
    }

    /// The spans as JSONL, one object per span in start order.
    pub fn jsonl(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s
                .parent
                .map_or_else(|| "null".to_owned(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"span\":{i},\"parent\":{parent},\"name\":\"{}\",\"start_s\":{},\"end_s\":{},\"self_s\":{}}}",
                s.name,
                s.start_s,
                s.end_s,
                self.self_time(i)
            );
        }
        out
    }
}

/// What an actor is, for binning the steps that target it.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Role {
    Server,
    Host,
}

/// Roles by actor index: `servers` are the server actors, the rest hosts.
pub fn roles(actors: usize, servers: impl IntoIterator<Item = ActorId>) -> Vec<Role> {
    let mut roles = vec![Role::Host; actors];
    for a in servers {
        roles[a.0] = Role::Server;
    }
    roles
}

/// Wall time of a stepped run phase, split by what each step dispatched.
/// `unexplained_s` is the part of the phase no step covers (the loop, the
/// clock reads, queue sampling); the bins and it add up to `total_s`.
#[derive(Clone, Copy, Debug, Default)]
pub struct StepBins {
    pub server_s: f64,
    pub host_s: f64,
    pub timer_s: f64,
    /// Suppressed timers, dropped messages, crashes and recoveries.
    pub other_s: f64,
    pub unexplained_s: f64,
    pub total_s: f64,
    pub events: u64,
    pub depth_max: usize,
    pub overflow_max: usize,
    pub resizes: u64,
    pub quiesced: bool,
}

impl StepBins {
    /// Folds a later phase of the same run into this one.
    pub fn absorb(&mut self, later: StepBins) {
        self.server_s += later.server_s;
        self.host_s += later.host_s;
        self.timer_s += later.timer_s;
        self.other_s += later.other_s;
        self.unexplained_s += later.unexplained_s;
        self.total_s += later.total_s;
        self.events += later.events;
        self.depth_max = self.depth_max.max(later.depth_max);
        self.overflow_max = self.overflow_max.max(later.overflow_max);
        self.resizes = later.resizes;
        self.quiesced &= later.quiesced;
    }
}

/// How often (in steps) the queue structure is sampled.
const QUEUE_SAMPLE_EVERY: u64 = 256;

/// Ring capacity of the engine trace used to find each delivery's target.
/// A step records its delivery first and then one line per message the
/// handler sends, far fewer than this.
const TRACE_RING: usize = 4096;

/// Drives `sim` to quiescence (or `budget` events) one step at a time,
/// timing each step and binning it by event class and, for deliveries, by
/// the target actor's role (`roles[actor index]`).
pub fn run_stepped<M: 'static>(sim: &mut ActorSim<M>, roles: &[Role], budget: u64) -> StepBins {
    sim.enable_trace(TRACE_RING);
    let mut bins = StepBins::default();
    let phase = Instant::now();
    let mut quiesced = false;
    while bins.events < budget {
        let c = sim.counters();
        let (delivered, fired) = (c.delivered.get(), c.timers_fired.get());
        let recorded = sim.trace().recorded_total();
        let t0 = Instant::now();
        let stepped = sim.step();
        let dt = t0.elapsed().as_secs_f64();
        if !stepped {
            quiesced = true;
            break;
        }
        bins.events += 1;
        let c = sim.counters();
        if c.delivered.get() > delivered {
            // The delivery is this step's first trace line.
            let trace = sim.trace();
            let new_lines = (trace.recorded_total() - recorded) as usize;
            let target = trace
                .events()
                .nth(trace.len() - new_lines)
                .filter(|e| e.kind == TraceKind::Deliver)
                .map(|e| e.to.0);
            match target.and_then(|a| roles.get(a)) {
                Some(Role::Server) => bins.server_s += dt,
                Some(Role::Host) => bins.host_s += dt,
                None => bins.other_s += dt,
            }
        } else if c.timers_fired.get() > fired {
            bins.timer_s += dt;
        } else {
            bins.other_s += dt;
        }
        if bins.events % QUEUE_SAMPLE_EVERY == 0 {
            let q = sim.queue_stats();
            bins.depth_max = bins.depth_max.max(q.depth);
            bins.overflow_max = bins.overflow_max.max(q.overflow);
        }
    }
    bins.total_s = phase.elapsed().as_secs_f64();
    bins.quiesced = quiesced;
    bins.resizes = sim.queue_stats().resizes;
    sim.enable_trace(0);
    bins.unexplained_s = bins.total_s - (bins.server_s + bins.host_s + bins.timer_s + bins.other_s);
    bins
}
