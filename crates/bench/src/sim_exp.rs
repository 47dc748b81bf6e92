//! Experiment SIM: sim-kernel throughput — the calendar-queue hot path
//! against the ordered-map oracle queue, behind the committed
//! `BENCH_sim.json`.
//!
//! Two tier families:
//!
//! * **hold** — the classic hold model run directly on [`EventQueue`] and
//!   on [`OracleQueue`]: a large steady pending set where every pop is
//!   followed by a push at `popped + jitter`. This isolates the
//!   future-event list; both queues must produce the identical
//!   `(time, seq)` pop stream (asserted via digest) so the speedup is
//!   measured over byte-identical work.
//! * **actor** — the kernel end to end through [`ActorSim`] dispatch
//!   (boxed handlers, FIFO lanes, counters) on the calendar queue.

use std::time::Instant;

use lems_sim::actor::{Actor, ActorId, ActorSim, Ctx};
use lems_sim::queue::{EventQueue, EventSeq, OracleQueue};
use lems_sim::time::{SimDuration, SimTime};

use crate::emit::{SimBench, SimTier, BENCH_SCHEMA_VERSION};

/// One hold-model tier of the kernel experiment.
#[derive(Clone, Copy, Debug)]
pub struct HoldTierSpec {
    /// Tier label carried into `BENCH_sim.json`.
    pub label: &'static str,
    /// Steady pending-event population.
    pub pending: usize,
    /// Total pop+push cycles measured.
    pub events: u64,
    /// Reschedule delay range in ticks: each pop pushes back at
    /// `popped + 1 + U(0, spread)`. Small spreads pack many events per
    /// instant; large spreads give the classic sparse hold model.
    pub spread: u64,
}

/// One actor-dispatch tier (the calendar kernel, end to end).
#[derive(Clone, Copy, Debug)]
pub struct ActorTierSpec {
    /// Tier label.
    pub label: &'static str,
    /// Actors in the mesh.
    pub actors: usize,
    /// Messages kept in flight.
    pub in_flight: u64,
    /// Event budget per run.
    pub events: u64,
}

/// The CI smoke ladder: small enough for the gate job, large enough
/// (hundreds of milliseconds) that scheduler jitter cannot masquerade as a
/// regression.
pub fn smoke_hold_tiers() -> Vec<HoldTierSpec> {
    vec![HoldTierSpec {
        label: "hold-smoke-1m",
        pending: 50_000,
        events: 1_000_000,
        spread: 100_000,
    }]
}

/// The full committed hold ladder: a million-pending sparse tier, a
/// duplicate-heavy tier where thousands of events share each instant, and
/// the deep tier behind the headline speedup claim — 32 million pending
/// events, where the ordered map pays a ~25-level descent with cold nodes
/// per operation while the calendar's per-event work stays flat.
pub fn full_hold_tiers() -> Vec<HoldTierSpec> {
    let mut tiers = smoke_hold_tiers();
    tiers.push(HoldTierSpec {
        label: "hold-10m",
        pending: 1_000_000,
        events: 10_000_000,
        spread: 2_000_000,
    });
    tiers.push(HoldTierSpec {
        label: "hold-10m-dense",
        pending: 500_000,
        events: 10_000_000,
        spread: 1_000,
    });
    tiers.push(HoldTierSpec {
        label: "hold-10m-deep",
        pending: 32_000_000,
        events: 10_000_000,
        spread: 12_000,
    });
    tiers
}

/// Smoke actor tier.
pub fn smoke_actor_tiers() -> Vec<ActorTierSpec> {
    vec![ActorTierSpec {
        label: "actor-smoke-500k",
        actors: 64,
        in_flight: 4_096,
        events: 500_000,
    }]
}

/// The tier the `--prof-gate` overhead measurement runs on: the smoke
/// actor mesh scaled to a quarter-second wall time, so the min-of-N
/// statistic is measuring profiler cost rather than scheduler noise (at
/// the 65ms smoke scale, runner jitter alone spans several percent).
pub fn prof_gate_tier() -> ActorTierSpec {
    ActorTierSpec {
        label: "actor-prof-gate-2m",
        actors: 64,
        in_flight: 4_096,
        events: 2_000_000,
    }
}

/// Full actor ladder.
pub fn full_actor_tiers() -> Vec<ActorTierSpec> {
    let mut tiers = smoke_actor_tiers();
    tiers.push(ActorTierSpec {
        label: "actor-10m",
        actors: 256,
        in_flight: 65_536,
        events: 10_000_000,
    });
    tiers
}

fn ms(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1_000.0
}

fn per_sec(events: u64, wall_ms: f64) -> f64 {
    if wall_ms > 0.0 {
        events as f64 / (wall_ms / 1_000.0)
    } else {
        f64::INFINITY
    }
}

/// Repetitions per measurement: every tier keeps the minimum wall time
/// over three runs. With process-isolated hold measurements the heap
/// layout is reproducible run to run, so min-of-3 only has to absorb
/// external interference (scheduler preemption, other tenants).
fn reps_for(_events: u64) -> u32 {
    3
}

/// Hold tiers with multi-gigabyte pending sets get two extra repetitions:
/// their timed cycle is one long cold-memory walk, maximally exposed to
/// neighboring tenants' memory traffic, and the minimum needs more draws
/// to converge there.
fn hold_reps_for(spec: &HoldTierSpec) -> u32 {
    if spec.pending >= 8_000_000 {
        5
    } else {
        reps_for(spec.events)
    }
}

/// Peak resident set of this process so far, in KiB (`VmHWM`), or 0 where
/// `/proc` is unavailable. One monotonic value per process: record it once,
/// after the largest tier has run.
pub fn peak_rss_kib() -> u64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0;
    };
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmHWM:") {
            return rest
                .trim()
                .trim_end_matches("kB")
                .trim()
                .parse()
                .unwrap_or(0);
        }
    }
    0
}

/// Deterministic tick jitter: a 64-bit LCG (Knuth's MMIX constants), folded
/// to a bounded delay.
fn lcg(state: &mut u64) -> u64 {
    *state = state
        .wrapping_mul(6_364_136_223_846_793_005)
        .wrapping_add(1_442_695_040_888_963_407);
    *state
}

// ---------------------------------------------------------------------------
// Hold model: the queue in isolation.
// ---------------------------------------------------------------------------

/// A realistic event footprint: the kernel's own `Ev<M>` (discriminant,
/// actor ids, a message payload) is this order of magnitude, not a bare
/// integer. Payload size is where the two queues differ structurally —
/// the ordered map copies payloads through every node shift and split,
/// the calendar writes each into a pool slot exactly once.
#[derive(Clone, Copy)]
struct HoldEvent([u64; 8]);

/// The two operations the hold model performs, implemented by both queues
/// so one monomorphized loop measures either.
trait HoldQueue {
    fn push(&mut self, at: SimTime, ev: HoldEvent);
    fn pop_with_seq(&mut self) -> Option<(SimTime, EventSeq, HoldEvent)>;
}

impl HoldQueue for EventQueue<HoldEvent> {
    fn push(&mut self, at: SimTime, ev: HoldEvent) {
        EventQueue::push(self, at, ev);
    }
    fn pop_with_seq(&mut self) -> Option<(SimTime, EventSeq, HoldEvent)> {
        EventQueue::pop_with_seq(self)
    }
}

impl HoldQueue for OracleQueue<HoldEvent> {
    fn push(&mut self, at: SimTime, ev: HoldEvent) {
        OracleQueue::push(self, at, ev);
    }
    fn pop_with_seq(&mut self) -> Option<(SimTime, EventSeq, HoldEvent)> {
        OracleQueue::pop_with_seq(self)
    }
}

/// One hold run: fills `pending` events, then cycles pop→push `events`
/// times. Returns the wall time and an FNV digest of the complete
/// `(ticks, seq)` pop stream.
fn hold_run(mut q: impl HoldQueue, spec: &HoldTierSpec, seed: u64) -> (f64, u64) {
    let mut rng = seed;
    for i in 0..spec.pending as u64 {
        q.push(
            SimTime::from_ticks(1 + lcg(&mut rng) % spec.spread),
            HoldEvent([i; 8]),
        );
    }
    let mut digest: u64 = 0xcbf2_9ce4_8422_2325;
    let t0 = Instant::now();
    for i in 0..spec.events {
        let (at, seq, ev) = q.pop_with_seq().expect("pending set never empties");
        digest ^= at.as_ticks();
        digest = digest.wrapping_mul(0x1000_0000_01b3);
        digest ^= seq.0;
        digest = digest.wrapping_mul(0x1000_0000_01b3);
        q.push(
            SimTime::from_ticks(at.as_ticks() + 1 + lcg(&mut rng) % spec.spread),
            HoldEvent([i.wrapping_add(ev.0[0]); 8]),
        );
    }
    (ms(t0), digest)
}

/// One hold measurement in this process: fill + timed cycle on a fresh
/// queue. Returns wall time, pop-stream digest, and the process's peak
/// RSS so far in KiB.
fn hold_measure_in_process(spec: &HoldTierSpec, engine: &str, seed: u64) -> (f64, u64, u64) {
    let (wall, digest) = if engine == "calendar" {
        hold_run(EventQueue::with_capacity(spec.pending), spec, seed)
    } else {
        hold_run(OracleQueue::new(), spec, seed)
    };
    (wall, digest, peak_rss_kib())
}

/// Environment handshake for process-isolated hold measurements:
/// `engine:pending:events:spread:seed`.
pub const HOLD_CHILD_ENV: &str = "LEMS_SIM_HOLD_CHILD";

/// Child-process hook for binaries that use [`run_hold_tier_isolated`]:
/// when the handshake variable is present, this process was spawned by a
/// parent bench run — perform the single requested measurement, print
/// `wall_ms digest rss_kib` on stdout, and return `true` so the caller
/// exits before running its own suite.
pub fn hold_child_main() -> bool {
    let Ok(v) = std::env::var(HOLD_CHILD_ENV) else {
        return false;
    };
    let mut parts = v.split(':');
    let engine = parts.next().unwrap_or_default().to_owned();
    let mut num = || -> u64 {
        parts
            .next()
            .and_then(|s| s.parse().ok())
            .expect("malformed hold-child handshake")
    };
    let spec = HoldTierSpec {
        label: "child",
        pending: num() as usize,
        events: num(),
        spread: num(),
    };
    let seed = num();
    let (wall, digest, rss) = hold_measure_in_process(&spec, &engine, seed);
    println!("{wall:.6} {digest} {rss}");
    true
}

/// One process-isolated hold measurement: re-executes the current binary
/// with the [`HOLD_CHILD_ENV`] handshake so the fill + timed cycle runs on
/// a pristine heap. In-process repetitions contaminate each other through
/// recycled allocator pages — whichever engine runs *later* rebuilds its
/// multi-gigabyte structure over pages the earlier one already faulted in,
/// and min-of-N then reports that engine's warmed reps (worth ~20% to the
/// ordered map at the deep tier). A fresh process per measurement makes
/// both engines equally cold and the heap layout reproducible. Requires
/// the calling binary to invoke [`hold_child_main`] before anything else.
fn hold_measure_isolated(spec: &HoldTierSpec, engine: &str, seed: u64) -> (f64, u64, u64) {
    let exe = std::env::current_exe().expect("resolve current executable");
    let out = std::process::Command::new(exe)
        .env(
            HOLD_CHILD_ENV,
            format!(
                "{engine}:{}:{}:{}:{seed}",
                spec.pending, spec.events, spec.spread
            ),
        )
        .stderr(std::process::Stdio::inherit())
        .output()
        .expect("spawn hold measurement child");
    assert!(
        out.status.success(),
        "hold child failed — does the calling binary run hold_child_main()?"
    );
    let text = String::from_utf8_lossy(&out.stdout);
    let mut it = text.split_whitespace();
    let wall: f64 = it
        .next()
        .and_then(|s| s.parse().ok())
        .expect("child wall time");
    let digest: u64 = it
        .next()
        .and_then(|s| s.parse().ok())
        .expect("child digest");
    let rss: u64 = it.next().and_then(|s| s.parse().ok()).expect("child rss");
    (wall, digest, rss)
}

/// Runs one hold tier on both queues (`calendar` first, then the oracle
/// as `baseline`), asserting the pop streams are byte-identical. `measure`
/// supplies each repetition's wall time, digest, and peak RSS; the tier
/// keeps the minimum wall time, and the largest RSS any measurement saw is
/// returned alongside the tiers.
fn hold_tier_with(
    spec: &HoldTierSpec,
    seed: u64,
    mut measure: impl FnMut(&HoldTierSpec, &str, u64) -> (f64, u64, u64),
) -> (Vec<SimTier>, u64) {
    let mut out = Vec::new();
    let mut digests = Vec::new();
    let mut max_rss = 0u64;
    for engine in ["calendar", "baseline"] {
        let mut best: Option<(f64, u64)> = None;
        for _ in 0..hold_reps_for(spec) {
            let (wall, digest, rss) = measure(spec, engine, seed);
            max_rss = max_rss.max(rss);
            best = Some(match best {
                None => (wall, digest),
                Some((w, d)) => {
                    assert_eq!(d, digest, "hold runs are deterministic");
                    (w.min(wall), d)
                }
            });
        }
        let (wall_ms, digest) = best.expect("at least one repetition runs");
        digests.push(digest);
        out.push(SimTier {
            label: spec.label.to_owned(),
            engine: engine.to_owned(),
            pending: spec.pending as u64,
            actors: 0,
            events: spec.events,
            wall_ms,
            events_per_sec: per_sec(spec.events, wall_ms),
            digest: format!("{digest:#018x}"),
        });
    }
    assert_eq!(
        digests[0], digests[1],
        "{}: calendar and baseline pop streams must be byte-identical",
        spec.label
    );
    (out, max_rss)
}

/// In-process hold tier: every repetition shares this process's heap.
/// Used by tests and oracles; the committed bench numbers come from
/// [`run_hold_tier_isolated`] instead.
pub fn run_hold_tier(spec: &HoldTierSpec, seed: u64) -> Vec<SimTier> {
    hold_tier_with(spec, seed, hold_measure_in_process).0
}

/// Process-isolated hold tier: each repetition of each engine runs in a
/// fresh child process (see [`hold_measure_isolated`]). Returns the tiers
/// plus the largest peak RSS any child reported.
pub fn run_hold_tier_isolated(spec: &HoldTierSpec, seed: u64) -> (Vec<SimTier>, u64) {
    hold_tier_with(spec, seed, hold_measure_isolated)
}

// ---------------------------------------------------------------------------
// Actor dispatch: the kernel end to end.
// ---------------------------------------------------------------------------

/// Forwards every ball to an arithmetically chosen peer with a small
/// quantized delay — pure queue-and-dispatch churn, no per-event state
/// growth.
struct Forwarder {
    n: usize,
}

impl Actor for Forwarder {
    type Msg = u64;
    fn on_message(&mut self, _from: ActorId, msg: u64, ctx: &mut Ctx<'_, u64>) {
        let me = ctx.me().0 as u64;
        let to = ActorId(((me + 1 + (msg % 13)) as usize) % self.n);
        ctx.send(
            to,
            msg.wrapping_mul(31).wrapping_add(me),
            SimDuration::from_ticks(3 + msg % 5),
        );
    }
}

fn actor_run(sim: &mut ActorSim<u64>, spec: &ActorTierSpec) -> (f64, u64) {
    for _ in 0..spec.actors {
        sim.add_actor(Forwarder { n: spec.actors });
    }
    let mut rng = 0x5eed_5eed_5eed_5eed_u64;
    for b in 0..spec.in_flight {
        let to = ActorId((b % spec.actors as u64) as usize);
        sim.inject(to, lcg(&mut rng), SimDuration::from_ticks(1 + b % 7));
    }
    let t0 = Instant::now();
    let quiesced = sim.run_to_quiescence_bounded(spec.events);
    let wall = ms(t0);
    assert!(
        !quiesced,
        "forwarding traffic must keep the budget saturated"
    );
    (wall, sim.counters().delivered.get())
}

/// Runs one actor tier end to end on the calendar kernel, keeping the
/// minimum wall time over the repetitions and asserting they processed
/// identical workloads.
pub fn run_actor_tier(spec: &ActorTierSpec, seed: u64) -> SimTier {
    let mut best: Option<(f64, u64)> = None;
    for _ in 0..reps_for(spec.events) {
        let (wall, delivered) = actor_run(&mut ActorSim::new(seed), spec);
        best = Some(match best {
            None => (wall, delivered),
            Some((w, d)) => {
                assert_eq!(d, delivered, "actor runs are deterministic");
                (w.min(wall), d)
            }
        });
    }
    let (wall_ms, delivered) = best.expect("at least one repetition runs");
    SimTier {
        label: spec.label.to_owned(),
        engine: "calendar".to_owned(),
        pending: spec.in_flight,
        actors: spec.actors as u64,
        events: delivered,
        wall_ms,
        events_per_sec: per_sec(delivered, wall_ms),
        digest: format!("{delivered:#018x}"),
    }
}

/// One paired profiling-overhead measurement: the same actor tier timed
/// with the kernel profiler off and on.
#[derive(Clone, Copy, Debug)]
pub struct ProfOverhead {
    /// Tier the measurement ran on.
    pub label: &'static str,
    /// Min-of-N wall time with profiling off, in milliseconds.
    pub off_ms: f64,
    /// Min-of-N wall time with profiling on, in milliseconds.
    pub on_ms: f64,
    /// Best paired ratio minus one: each repetition times off and on
    /// back to back and contributes `on/off`; the minimum ratio across
    /// repetitions is the estimate least polluted by background load
    /// (a spike inflates one side of *some* pair, not every pair).
    /// Negative when jitter favours the profiled run.
    pub overhead_frac: f64,
    /// Events the profiler attributed in the profiled runs.
    pub dispatches: u64,
}

/// Measures the kernel profiler's overhead on one actor tier: min-of-N
/// wall time with profiling off vs on, over workloads asserted identical
/// (same delivered count and final clock — the profiler's
/// zero-perturbation contract, pinned independently by
/// `crates/sim/tests/prof_digest.rs`).
///
/// # Panics
///
/// Panics when the profiled and unprofiled runs diverge in delivered
/// count or final sim time — that would mean profiling perturbed the run,
/// which is a kernel bug, not a measurement artifact.
pub fn measure_prof_overhead(spec: &ActorTierSpec, seed: u64, reps: u32) -> ProfOverhead {
    let mut best = [f64::INFINITY; 2];
    let mut best_ratio = f64::INFINITY;
    let mut outcome: [Option<(u64, u64)>; 2] = [None, None];
    let mut dispatches = 0u64;
    // Each repetition times off and on back to back, so background load
    // has to persist across a whole pair to bias its ratio; the gate then
    // reads the *minimum* paired ratio, which a transient spike cannot
    // inflate.
    for _ in 0..reps.max(1) {
        let mut pair = [0.0f64; 2];
        for (i, prof) in [false, true].into_iter().enumerate() {
            let mut sim = ActorSim::new(seed);
            if prof {
                sim.enable_prof();
            }
            let (wall, delivered) = actor_run(&mut sim, spec);
            pair[i] = wall;
            best[i] = best[i].min(wall);
            let fp = (delivered, sim.now().as_ticks());
            match outcome[i] {
                None => outcome[i] = Some(fp),
                Some(prev) => assert_eq!(prev, fp, "reps are deterministic"),
            }
            if prof {
                dispatches = sim.prof().dispatches();
            }
        }
        best_ratio = best_ratio.min(pair[1] / pair[0].max(f64::MIN_POSITIVE));
    }
    assert_eq!(
        outcome[0], outcome[1],
        "{}: profiling must not perturb the run",
        spec.label
    );
    ProfOverhead {
        label: spec.label,
        off_ms: best[0],
        on_ms: best[1],
        overhead_frac: best_ratio - 1.0,
        dispatches,
    }
}

/// Runs the given ladders and assembles the `BENCH_sim.json` document.
///
/// With `isolate_hold`, every hold repetition runs in a fresh child
/// process (the calling binary must run [`hold_child_main`] first thing);
/// `peak_rss_kib` then covers the children too. Without it, hold tiers run
/// in-process — fine for tests, too contaminated for committed numbers.
pub fn run_suite(
    hold: &[HoldTierSpec],
    actor: &[ActorTierSpec],
    seed: u64,
    isolate_hold: bool,
) -> SimBench {
    let mut tiers = Vec::new();
    let mut child_rss = 0u64;
    for spec in hold {
        let (t, rss) = if isolate_hold {
            run_hold_tier_isolated(spec, seed)
        } else {
            (run_hold_tier(spec, seed), 0)
        };
        child_rss = child_rss.max(rss);
        tiers.extend(t);
    }
    for spec in actor {
        tiers.push(run_actor_tier(spec, seed));
    }
    SimBench {
        schema_version: BENCH_SCHEMA_VERSION,
        experiment: "sim-kernel".to_owned(),
        seed,
        peak_rss_kib: peak_rss_kib().max(child_rss),
        tiers,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hold_tier_pins_identical_pop_streams() {
        let spec = HoldTierSpec {
            label: "test-hold",
            pending: 2_000,
            events: 20_000,
            spread: 5_000,
        };
        let tiers = run_hold_tier(&spec, 7);
        assert_eq!(tiers.len(), 2);
        assert_eq!(tiers[0].engine, "calendar");
        assert_eq!(tiers[1].engine, "baseline");
        assert_eq!(tiers[0].digest, tiers[1].digest);
        assert_eq!(tiers[0].events, 20_000);
        assert!(tiers[0].events_per_sec > 0.0);
    }

    #[test]
    fn actor_tier_saturates_its_event_budget() {
        let spec = ActorTierSpec {
            label: "test-actor",
            actors: 8,
            in_flight: 64,
            events: 10_000,
        };
        let tier = run_actor_tier(&spec, 7);
        assert_eq!(tier.engine, "calendar");
        assert!(tier.events >= 10_000);
        assert!(tier.events_per_sec > 0.0);
    }

    #[test]
    fn prof_overhead_measurement_is_sane() {
        let spec = ActorTierSpec {
            label: "test-prof",
            actors: 8,
            in_flight: 64,
            events: 10_000,
        };
        let o = measure_prof_overhead(&spec, 7, 2);
        assert!(o.off_ms > 0.0 && o.on_ms > 0.0);
        assert!(o.dispatches >= 10_000, "profiler saw the whole run");
        assert!(o.overhead_frac.is_finite());
    }

    #[test]
    fn rss_probe_reports_something_on_linux() {
        // On Linux the probe must find VmHWM; elsewhere 0 is acceptable.
        let kib = peak_rss_kib();
        if std::path::Path::new("/proc/self/status").exists() {
            assert!(kib > 0, "VmHWM should be present and non-zero");
        }
    }
}
