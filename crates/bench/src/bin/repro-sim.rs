//! SIM: sim-kernel throughput — the calendar queue vs the ordered-map
//! oracle queue, and the calendar kernel end to end, behind the committed
//! `BENCH_sim.json` document.
//!
//! ```sh
//! repro-sim [--smoke] [--json] [--seed <n>] [--out <dir>]
//!           [--baseline <BENCH_sim.json>] [--tolerance <frac>]
//!           [--prof-gate <frac>]
//! ```
//!
//! `--smoke` runs only the small tiers (the CI gate); `--out` writes
//! `BENCH_sim.json` into a directory; `--baseline` + `--tolerance` fail
//! the run when a tier's wall time regressed beyond the tolerance
//! (default 0.25 = +25%). `--prof-gate` additionally measures the kernel
//! profiler's overhead on the smoke actor tier (off vs on, min-of-N) and
//! fails when the profiled run is more than the given fraction slower
//! (CI passes 0.05 = +5%); sub-2ms deltas are treated as scheduler
//! jitter, not overhead.

use std::fs;
use std::process::ExitCode;

use lems_bench::emit::{gate_sim_times, json_flag, Report, SimBench};
use lems_bench::render::{f1, Table};
use lems_bench::sim_exp::{
    full_actor_tiers, full_hold_tiers, hold_child_main, measure_prof_overhead, prof_gate_tier,
    run_suite, smoke_actor_tiers, smoke_hold_tiers,
};

struct Args {
    smoke: bool,
    json: bool,
    seed: u64,
    out: Option<String>,
    baseline: Option<String>,
    tolerance: f64,
    prof_gate: Option<f64>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        smoke: false,
        json: json_flag(),
        seed: 42,
        out: None,
        baseline: None,
        tolerance: 0.25,
        prof_gate: None,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut it = argv.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--smoke" => args.smoke = true,
            "--json" => {} // already consumed by json_flag()
            "--seed" => {
                args.seed = it
                    .next()
                    .and_then(|s| s.parse().ok())
                    .ok_or("--seed needs an integer")?;
            }
            "--out" => args.out = Some(it.next().ok_or("--out needs a directory")?.clone()),
            "--baseline" => {
                args.baseline = Some(it.next().ok_or("--baseline needs a file")?.clone());
            }
            "--tolerance" => {
                args.tolerance = it
                    .next()
                    .and_then(|s| s.parse().ok())
                    .ok_or("--tolerance needs a fraction like 0.25")?;
            }
            "--prof-gate" => {
                args.prof_gate = Some(
                    it.next()
                        .and_then(|s| s.parse().ok())
                        .ok_or("--prof-gate needs a fraction like 0.05")?,
                );
            }
            other => return Err(format!("unknown option `{other}`")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    // Hold measurements re-exec this binary so every repetition gets a
    // pristine heap; a child process does exactly one measurement.
    if hold_child_main() {
        return ExitCode::SUCCESS;
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("repro-sim: {e}");
            return ExitCode::from(2);
        }
    };

    let doc = if args.smoke {
        run_suite(&smoke_hold_tiers(), &smoke_actor_tiers(), args.seed, true)
    } else {
        run_suite(&full_hold_tiers(), &full_actor_tiers(), args.seed, true)
    };

    let mut report = Report::new(
        "sim",
        format!(
            "SIM — kernel throughput: calendar queue, pooled dispatch (seed {})",
            doc.seed
        ),
    );

    let mut t = Table::new(vec![
        "tier", "engine", "pending", "actors", "events", "wall ms", "events/s", "digest",
    ]);
    for tier in &doc.tiers {
        t.row(vec![
            tier.label.clone(),
            tier.engine.clone(),
            tier.pending.to_string(),
            tier.actors.to_string(),
            tier.events.to_string(),
            f1(tier.wall_ms),
            format!("{:.0}", tier.events_per_sec),
            tier.digest.clone(),
        ]);
    }
    report.table("sim_tiers", &t);

    // Speedup notes: calendar vs baseline per hold tier (both queues run
    // digest-identical work).
    for label in doc
        .tiers
        .iter()
        .filter(|t| t.engine == "baseline")
        .map(|t| t.label.clone())
        .collect::<Vec<_>>()
    {
        let cal = doc
            .tiers
            .iter()
            .find(|t| t.label == label && t.engine == "calendar");
        let base = doc
            .tiers
            .iter()
            .find(|t| t.label == label && t.engine == "baseline");
        if let (Some(cal), Some(base)) = (cal, base) {
            if base.events_per_sec > 0.0 {
                report.note(format!(
                    "tier {}: calendar queue runs {:.2}x the ordered-map queue \
                     ({:.0} vs {:.0} events/s) over a digest-identical event stream",
                    label,
                    cal.events_per_sec / base.events_per_sec,
                    cal.events_per_sec,
                    base.events_per_sec
                ));
            }
        }
    }
    report.note(format!(
        "peak RSS {} KiB; determinism contract: equal digests within every \
         tier (asserted during the run, pinned by tests/kernel_equivalence.rs)",
        doc.peak_rss_kib
    ));

    let prof = args.prof_gate.map(|gate| {
        let spec = prof_gate_tier();
        let o = measure_prof_overhead(&spec, args.seed, 5);
        report.note(format!(
            "profiler overhead on tier {}: {:.1} ms off vs {:.1} ms on \
             (best paired ratio {:+.1}% across {} dispatches; gate {:.0}%, \
             wall-clock side channel only — output bytes are identical)",
            o.label,
            o.off_ms,
            o.on_ms,
            o.overhead_frac * 100.0,
            o.dispatches,
            gate * 100.0
        ));
        (o, gate)
    });

    report.emit(args.json);

    if let Some(dir) = &args.out {
        fs::create_dir_all(dir).expect("create --out directory");
        let path = format!("{dir}/BENCH_sim.json");
        fs::write(&path, doc.to_json() + "\n").expect("write BENCH_sim.json");
        eprintln!("wrote {path}");
    }

    if let Some(path) = &args.baseline {
        let text = fs::read_to_string(path).expect("read baseline");
        let base: SimBench = serde_json::from_str(&text).expect("parse baseline");
        let regressions = gate_sim_times(&base, &doc, args.tolerance);
        if regressions.is_empty() {
            eprintln!(
                "perf gate: ok (tolerance {:.0}%, baseline {path})",
                args.tolerance * 100.0
            );
        } else {
            for r in &regressions {
                eprintln!(
                    "perf gate: tier {} {} regressed {:.1} -> {:.1} ms (> {:.0}% over baseline)",
                    r.label,
                    r.metric,
                    r.baseline_ms,
                    r.current_ms,
                    args.tolerance * 100.0
                );
            }
            return ExitCode::FAILURE;
        }
    }

    if let Some((o, gate)) = prof {
        // Sub-2ms implied deltas are scheduler jitter at this tier's
        // scale, not profiling cost — the same floor gate_sim_times
        // applies.
        let delta_ms = o.overhead_frac * o.off_ms;
        if o.overhead_frac > gate && delta_ms > 2.0 {
            eprintln!(
                "prof gate: profiling overhead {:.1}% ({:.1} -> {:.1} ms) exceeds {:.0}% \
                 on tier {}",
                o.overhead_frac * 100.0,
                o.off_ms,
                o.on_ms,
                gate * 100.0,
                o.label
            );
            return ExitCode::FAILURE;
        }
        eprintln!(
            "prof gate: ok ({:+.1}% on tier {}, gate {:.0}%)",
            o.overhead_frac * 100.0,
            o.label,
            gate * 100.0
        );
    }
    ExitCode::SUCCESS
}
