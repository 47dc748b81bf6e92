//! `mailbench`: the end-to-end benchmark of the lems mail pipelines.
//!
//! ```text
//! mailbench --workload <s1-send|s1-getmail|s2-roam> --seed <n> --seconds <s> --trace <0|1>
//! mailbench --workload <name|all> --repeat <n> [--seed <first>] [--seconds <s>] [--trace <0|1>]
//! ```
//!
//! An untraced run (`--trace 0`) repeats whole rounds of one workload (set
//! up, run to quiescence, check) for `--seconds` and prints the end-to-end
//! metrics. A traced run (`--trace 1`) runs a fixed set of rounds and prints
//! the per-layer metrics. The last line of standard output is one JSON
//! object: `{"correct", "attempted", "failed", "metrics"}`. `--repeat`
//! runs the single-run form N times with seeds `first..first+N` as child
//! processes and prints each metric's median and quartiles. See README.md.

mod ledger;
mod measure;
mod system1;
mod system2;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::{Command, ExitCode};
use std::time::Instant;

use ledger::{Recorder, StepBins};
use measure::{median, peak_rss_mib, quartiles, AllocCount, CountingAlloc};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// How a round deviates from the measured configuration.
#[derive(Clone, Copy, Debug, Default)]
pub struct Variant {
    /// Drive the run phase one step at a time with the per-step ledger and
    /// count its allocations (and time the assignment on its own).
    pub stepped: bool,
    /// Use the Ideal store even where the workload asks for the WAL.
    pub ideal_store: bool,
    /// Record lifecycle spans and export them after the run.
    pub spans: bool,
}

/// Failed operations of a round, by cause.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Failures {
    /// Mail to a user whose primary server is in another region, bounced
    /// after `MAX_HOPS` forwards between the two regions.
    pub forwarding_loop: u64,
    /// Mail left on a secondary authority server that GetMail never polls
    /// again.
    pub stranded: u64,
    /// Anything else; any such failure makes the run incorrect.
    pub other: u64,
}

impl Failures {
    fn total(self) -> u64 {
        self.forwarding_loop + self.stranded + self.other
    }

    fn add(&mut self, o: Failures) {
        self.forwarding_loop += o.forwarding_loop;
        self.stranded += o.stranded;
        self.other += o.other;
    }
}

/// What one round measured and found.
#[derive(Debug, Default)]
pub struct Outcome {
    pub setup_s: f64,
    pub run_s: f64,
    /// Messages submitted.
    pub attempted: u64,
    pub failures: Failures,
    /// Correctness violations; any makes the run incorrect.
    pub violations: Vec<String>,
    /// Simulated submit-to-deposit (System 1) or submit-to-notify
    /// (System 2) latency: (p50, p99), in simulated time units.
    pub latency: (f64, f64),
    /// Per-layer counts read from the program after the run.
    pub layer: BTreeMap<&'static str, f64>,
    pub bins: Option<StepBins>,
    pub allocs: Option<AllocCount>,
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Workload {
    S1Send,
    S1GetMail,
    S2Roam,
}

const WORKLOADS: [(&str, Workload); 3] = [
    ("s1-send", Workload::S1Send),
    ("s1-getmail", Workload::S1GetMail),
    ("s2-roam", Workload::S2Roam),
];

impl Workload {
    fn name(self) -> &'static str {
        WORKLOADS
            .iter()
            .find(|(_, w)| *w == self)
            .map_or("?", |(n, _)| n)
    }

    fn is_system1(self) -> bool {
        self != Workload::S2Roam
    }

    /// Runs one round and reads its set-up and run-phase times from the
    /// spans it recorded.
    fn round(self, seed: u64, variant: Variant, rec: &mut Recorder) -> Outcome {
        let mut o = match self {
            Workload::S1Send => system1::round(&system1::S1_SEND, seed, variant, rec),
            Workload::S1GetMail => system1::round(&system1::S1_GETMAIL, seed, variant, rec),
            Workload::S2Roam => system2::round(seed, variant, rec),
        };
        // Assignment is timed on its own only in the stepped round, and is
        // part of `setup.build` in every round.
        o.setup_s = [
            "setup.topology",
            "setup.build",
            "setup.generate",
            "setup.inject",
        ]
        .iter()
        .map(|n| rec.last(n))
        .sum();
        o.run_s = rec.last("run");
        o
    }
}

/// The end-to-end metrics, printed by untraced runs.
const END_TO_END: [(&str, &str); 5] = [
    ("msgs_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("latency_p50", "sim-units"),
    ("latency_p99", "sim-units"),
];

/// The per-layer metrics, printed by traced runs.
const PER_LAYER: [(&str, &str); 39] = [
    ("setup.topology_s", "s"),
    ("setup.assign_s", "s"),
    ("setup.build_s", "s"),
    ("setup.generate_s", "s"),
    ("setup.inject_s", "s"),
    ("sim.events", "count"),
    ("sim.events_per_msg", "count/msg"),
    ("sim.ns_per_event", "ns"),
    ("queue.depth_max", "count"),
    ("queue.overflow_max", "count"),
    ("queue.resizes", "count"),
    ("handler.server_s", "s"),
    ("handler.host_s", "s"),
    ("handler.timer_s", "s"),
    ("handler.other_s", "s"),
    ("run.unexplained_s", "s"),
    ("run.traced_s", "s"),
    ("alloc.count_per_msg", "count/msg"),
    ("alloc.bytes_per_msg", "B/msg"),
    ("store.appends_per_msg", "count/msg"),
    ("store.bytes_per_msg", "B/msg"),
    ("store.fsyncs_per_msg", "count/msg"),
    ("store.compactions", "count"),
    ("store.wal_overhead_s", "s"),
    ("route.submit_probes_per_msg", "count/msg"),
    ("route.forward_probes_per_msg", "count/msg"),
    ("getmail.polls_per_check", "count"),
    ("getmail.checks", "count"),
    ("getmail.retrieve_p50", "sim-units"),
    ("session.retransmits_per_msg", "count/msg"),
    ("session.timers_fired", "count"),
    ("roam.consults_per_msg", "count/msg"),
    ("roam.relay_probes_per_msg", "count/msg"),
    ("obs.span_overhead_s", "s"),
    ("obs.export_s", "s"),
    ("obs.span_events", "count"),
    ("trace.overhead_s", "s"),
    ("fault.forwarding_loop", "count"),
    ("fault.stranded", "count"),
];

/// What a run prints: the JSON result plus the failure breakdown.
struct Report {
    workload: Workload,
    seed: u64,
    rounds: usize,
    correct: bool,
    attempted: u64,
    failures: Failures,
    metrics: Vec<(&'static str, &'static str, f64)>,
}

impl Report {
    fn print(&self) {
        println!(
            "# {} seed {}: {} round(s), {} messages attempted, {} failed \
             (forwarding loop {}, stranded {}, other {})",
            self.workload.name(),
            self.seed,
            self.rounds,
            self.attempted,
            self.failures.total(),
            self.failures.forwarding_loop,
            self.failures.stranded,
            self.failures.other
        );
        for (name, unit, value) in &self.metrics {
            println!("{name} {value} {unit}");
        }
        let mut json = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct,
            self.attempted,
            self.failures.total()
        );
        for (i, (name, unit, value)) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                json,
                "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        json.push_str("}}");
        println!("{json}");
    }
}

/// Prints a round's violations; true when it had none.
fn report_violations(w: Workload, seed: u64, o: &Outcome) -> bool {
    for v in o.violations.iter().take(20) {
        eprintln!("{} seed {seed}: VIOLATION: {v}", w.name());
    }
    if o.violations.len() > 20 {
        eprintln!(
            "{} seed {seed}: ... {} violations in all",
            w.name(),
            o.violations.len()
        );
    }
    o.violations.is_empty()
}

/// An untraced run: whole rounds until `seconds` have passed.
fn untraced(w: Workload, seed: u64, seconds: f64) -> Report {
    let start = Instant::now();
    let mut rounds: Vec<Outcome> = Vec::new();
    let mut correct = true;
    // Read after the first round: later rounds reuse the freed heap, and
    // how fragmentation adds up over a varying number of rounds is noise.
    let mut peak_rss = 0.0;
    loop {
        let mut rec = Recorder::new();
        let o = w.round(seed, Variant::default(), &mut rec);
        correct &= report_violations(w, seed, &o);
        if let Some(first) = rounds.first() {
            // Same seed, same inputs: a deterministic simulator repeats
            // every simulated outcome exactly.
            if o.latency != first.latency || o.failures != first.failures {
                eprintln!(
                    "{} seed {seed}: VIOLATION: a repeated round diverged",
                    w.name()
                );
                correct = false;
            }
        }
        rounds.push(o);
        if rounds.len() == 1 {
            peak_rss = peak_rss_mib();
        }
        if start.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
    let mut failures = Failures::default();
    for o in &rounds {
        failures.add(o.failures);
    }
    let rate: Vec<f64> = rounds
        .iter()
        .map(|o| o.attempted as f64 / o.run_s)
        .collect();
    let setup: Vec<f64> = rounds.iter().map(|o| o.setup_s).collect();
    let (p50, p99) = rounds[0].latency;
    let values = [median(&rate), median(&setup), peak_rss, p50, p99];
    Report {
        workload: w,
        seed,
        rounds: rounds.len(),
        correct,
        attempted: rounds.iter().map(|o| o.attempted).sum(),
        failures,
        metrics: END_TO_END
            .iter()
            .zip(values)
            .map(|(&(n, u), v)| (n, u, v))
            .collect(),
    }
}

/// A traced run: a warm-up and a plain round, one stepped round with the per-step
/// ledger and allocation count, and the ablations (Ideal store on
/// `s1-send`, spans on for System 1). Writes the benchmark's own spans to
/// `.bench_out/<workload>-seed<seed>.jsonl`.
fn traced(w: Workload, seed: u64) -> Report {
    let mut rec = Recorder::new();
    // The first round of a process pays for growing the heap; the plain
    // round every ablation is compared against must not.
    let warmup = rec.span("round.warmup", |rec| w.round(seed, Variant::default(), rec));
    let plain = rec.span("round.plain", |rec| w.round(seed, Variant::default(), rec));
    let stepped_variant = Variant {
        stepped: true,
        ..Variant::default()
    };
    let stepped = rec.span("round.stepped", |rec| w.round(seed, stepped_variant, rec));
    let setup: Vec<f64> = [
        "setup.topology",
        "setup.assign",
        "setup.build",
        "setup.generate",
        "setup.inject",
    ]
    .iter()
    .map(|n| rec.last(n))
    .collect();
    let ideal = (w == Workload::S1Send).then(|| {
        let v = Variant {
            ideal_store: true,
            ..Variant::default()
        };
        rec.span("round.ideal_store", |rec| w.round(seed, v, rec))
    });
    let spans = w.is_system1().then(|| {
        let v = Variant {
            spans: true,
            ..Variant::default()
        };
        rec.span("round.spans", |rec| w.round(seed, v, rec))
    });

    let bins = stepped.bins.unwrap_or_default();
    let allocs = stepped.allocs.unwrap_or_default();
    let msgs = plain.attempted as f64;
    let layer = |name: &str| plain.layer.get(name).copied().unwrap_or(0.0);
    let events = bins.events as f64;
    let mut values: BTreeMap<&str, f64> = BTreeMap::new();
    for (name, v) in [
        "setup.topology_s",
        "setup.assign_s",
        "setup.build_s",
        "setup.generate_s",
        "setup.inject_s",
    ]
    .into_iter()
    .zip(setup)
    {
        values.insert(name, v);
    }
    values.insert("sim.events", events);
    values.insert("sim.events_per_msg", events / msgs);
    values.insert("sim.ns_per_event", plain.run_s * 1e9 / events);
    values.insert("queue.depth_max", bins.depth_max as f64);
    values.insert("queue.overflow_max", bins.overflow_max as f64);
    values.insert("queue.resizes", bins.resizes as f64);
    values.insert("handler.server_s", bins.server_s);
    values.insert("handler.host_s", bins.host_s);
    values.insert("handler.timer_s", bins.timer_s);
    values.insert("handler.other_s", bins.other_s);
    values.insert("run.unexplained_s", bins.unexplained_s);
    values.insert("run.traced_s", bins.total_s);
    values.insert("alloc.count_per_msg", allocs.count as f64 / msgs);
    values.insert("alloc.bytes_per_msg", allocs.bytes as f64 / msgs);
    values.insert(
        "store.wal_overhead_s",
        ideal.as_ref().map_or(0.0, |o| plain.run_s - o.run_s),
    );
    values.insert(
        "obs.span_overhead_s",
        spans.as_ref().map_or(0.0, |o| o.run_s - plain.run_s),
    );
    values.insert(
        "obs.export_s",
        spans.as_ref().map_or(0.0, |o| o.layer["obs.export_s"]),
    );
    values.insert(
        "obs.span_events",
        spans.as_ref().map_or(0.0, |o| o.layer["obs.span_events"]),
    );
    values.insert("trace.overhead_s", stepped.run_s - plain.run_s);
    values.insert(
        "fault.forwarding_loop",
        plain.failures.forwarding_loop as f64,
    );
    values.insert("fault.stranded", plain.failures.stranded as f64);

    let metrics = PER_LAYER
        .iter()
        .map(|&(n, u)| (n, u, values.get(n).copied().unwrap_or_else(|| layer(n))))
        .collect();
    let mut correct = bins.quiesced;
    let outcomes: Vec<Outcome> = [plain, warmup, stepped]
        .into_iter()
        .chain(ideal)
        .chain(spans)
        .collect();
    let mut failures = Failures::default();
    for o in &outcomes {
        correct &= report_violations(w, seed, o);
        correct &= o.failures == outcomes[0].failures;
        failures.add(o.failures);
    }

    let dir = std::path::Path::new(".bench_out");
    let path = dir.join(format!("{}-seed{seed}.jsonl", w.name()));
    if let Err(e) = std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, rec.jsonl())) {
        eprintln!("cannot write {}: {e}", path.display());
        correct = false;
    }
    Report {
        workload: w,
        seed,
        rounds: outcomes.len(),
        correct,
        attempted: outcomes.iter().map(|o| o.attempted).sum(),
        failures,
        metrics,
    }
}

/// Metric name to (value, unit).
type Metrics = BTreeMap<String, (f64, String)>;

/// Parses the correctness flag and metrics of a result line this program
/// printed.
fn parse_result(line: &str) -> Option<(bool, Metrics)> {
    let correct = line.starts_with("{\"correct\": true");
    let body = line.split_once("\"metrics\": {")?.1;
    let mut out = BTreeMap::new();
    for item in body.split("}, ") {
        let (name, rest) = item.split_once("\": {\"value\": ")?;
        let (value, unit) = rest.split_once(", \"unit\": \"")?;
        let unit = unit.split('"').next()?;
        out.insert(
            name.trim_start_matches('"').to_owned(),
            (value.parse().ok()?, unit.to_owned()),
        );
    }
    Some((correct, out))
}

/// Runs each selected workload `n` times as child processes, seeds
/// `first..first+n`, and prints every metric's median, quartiles and
/// quartile spread as a share of the median.
fn repeat(selected: &[Workload], n: u64, first: u64, seconds: f64, trace: bool) -> ExitCode {
    let Ok(exe) = std::env::current_exe() else {
        eprintln!("cannot locate this executable");
        return ExitCode::FAILURE;
    };
    let mut ok = true;
    for &w in selected {
        let mut series: BTreeMap<String, (Vec<f64>, String)> = BTreeMap::new();
        for seed in first..first + n {
            let out = Command::new(&exe)
                .args(["--workload", w.name(), "--seed", &seed.to_string()])
                .args([
                    "--seconds",
                    &seconds.to_string(),
                    "--trace",
                    if trace { "1" } else { "0" },
                ])
                .output();
            let parsed = out.as_ref().ok().and_then(|o| {
                let text = String::from_utf8_lossy(&o.stdout);
                print!("{text}");
                eprint!("{}", String::from_utf8_lossy(&o.stderr));
                text.lines().last().and_then(parse_result)
            });
            let Some((correct, metrics)) = parsed else {
                eprintln!("{} seed {seed}: no result", w.name());
                ok = false;
                continue;
            };
            ok &= correct;
            for (name, (v, unit)) in metrics {
                series
                    .entry(name)
                    .or_insert_with(|| (Vec::new(), unit))
                    .0
                    .push(v);
            }
        }
        println!(
            "## {} over {n} seeds from {first}: median q1 q3 (q3-q1)/median",
            w.name()
        );
        for (name, (vals, unit)) in &series {
            let m = median(vals);
            let (q1, q3) = if vals.len() >= 2 {
                quartiles(vals)
            } else {
                (m, m)
            };
            let spread = if m == 0.0 { 0.0 } else { (q3 - q1) / m.abs() };
            println!("{name} {m} {q1} {q3} {spread:.4} {unit}");
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

struct Args {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    repeat: Option<u64>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workloads: Vec::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        repeat: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" if value == "all" => {
                args.workloads = WORKLOADS.iter().map(|&(_, w)| w).collect()
            }
            "--workload" => {
                let w = WORKLOADS
                    .iter()
                    .find(|(n, _)| *n == value)
                    .ok_or_else(|| format!("unknown workload {value}"))?;
                args.workloads = vec![w.1];
            }
            "--seed" => args.seed = number()?,
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .map_err(|e| format!("--seconds {value}: {e}"))?;
            }
            "--trace" => args.trace = number()? != 0,
            "--repeat" => args.repeat = Some(number()?.max(1)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.workloads.is_empty() {
        return Err("--workload is required".to_owned());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("mailbench: {e}");
            eprintln!("usage: mailbench --workload <s1-send|s1-getmail|s2-roam|all> --seed <n> --seconds <s> --trace <0|1> [--repeat <n>]");
            return ExitCode::from(2);
        }
    };
    if args.repeat.is_some() || args.workloads.len() > 1 {
        return repeat(
            &args.workloads,
            args.repeat.unwrap_or(1),
            args.seed,
            args.seconds,
            args.trace,
        );
    }
    let w = args.workloads[0];
    let report = if args.trace {
        traced(w, args.seed)
    } else {
        untraced(w, args.seed, args.seconds)
    };
    report.print();
    ExitCode::SUCCESS
}
