//! Reading telemetry dumps back: parsing, per-message timelines,
//! per-server tables, latency summaries, and the exported-evidence span
//! audit.
//!
//! Everything here operates on the JSONL text alone — the inspector never
//! needs the simulation that produced the dump, so `lems-trace` can
//! examine dumps from any `repro-*` or `lems-check` run after the fact.

use std::fmt::Write as _;

use lems_core::store::StoreMetrics;
use lems_sim::span::{audit_spans, SpanAuditReport, SpanEvent, SpanId, SpanLog, SpanStage};
use lems_sim::time::SimTime;

use crate::schema::{ObsLine, OBS_SCHEMA_VERSION};

/// One parsed histogram line.
#[derive(Clone, Debug, PartialEq)]
pub struct HistSummary {
    /// Scope the histogram belongs to.
    pub scope: String,
    /// Histogram name.
    pub name: String,
    /// Observations recorded.
    pub count: u64,
    /// Mean of the raw observations.
    pub mean: f64,
    /// 50th percentile.
    pub p50: f64,
    /// 90th percentile.
    pub p90: f64,
    /// 99th percentile.
    pub p99: f64,
    /// Exact maximum.
    pub max: f64,
}

/// One parsed store-recovery line.
#[derive(Clone, Debug, PartialEq)]
pub struct RecoverySummary {
    /// Recovery time in ticks.
    pub at_ticks: u64,
    /// Node that recovered.
    pub site: u64,
    /// Backend that performed recovery.
    pub backend: String,
    /// WAL records replayed.
    pub replayed_records: u64,
    /// Mailbox messages present after recovery.
    pub recovered_messages: u64,
    /// Drained-but-unacked messages present after recovery.
    pub recovered_pending: u64,
    /// Unsettled forwards re-routed after recovery.
    pub recovered_forwards: u64,
    /// Stored messages the crash destroyed.
    pub lost_messages: u64,
    /// Torn-tail bytes truncated during replay.
    pub torn_bytes: u64,
    /// Live WAL segments after recovery.
    pub segments: u64,
}

/// One parsed kernel-profiler sample line.
#[derive(Clone, Debug, PartialEq)]
pub struct ProfileLine {
    /// Profiler scope: `dispatch`, `pool`, or `queue`.
    pub scope: String,
    /// Sample name within the scope.
    pub name: String,
    /// Sim time the sample refers to, in ticks (0 for run aggregates).
    pub at_ticks: u64,
    /// Primary value: a count or a level.
    pub count: u64,
    /// Sim-time ticks attributed to the sample.
    pub ticks: u64,
}

/// A fully parsed telemetry dump.
#[derive(Clone, Debug, Default)]
pub struct Dump {
    /// Scenario or experiment id from the header.
    pub run: String,
    /// Engine seed from the header.
    pub seed: u64,
    /// Simulated finish time from the header, in ticks.
    pub finished_at_ticks: u64,
    /// Span events, in record order.
    pub spans: Vec<SpanEvent>,
    /// Store-recovery reports, in recovery order.
    pub recoveries: Vec<RecoverySummary>,
    /// `(scope, name, value)` counters, in dump order.
    pub counters: Vec<(String, String, u64)>,
    /// `(scope, name, current, average)` gauges, in dump order.
    pub gauges: Vec<(String, String, f64, f64)>,
    /// Histogram summaries, in dump order.
    pub hists: Vec<HistSummary>,
    /// `(scope, metrics)` per-store durability counters, in dump order.
    pub store: Vec<(String, StoreMetrics)>,
    /// Kernel-profiler samples, in dump order.
    pub profile: Vec<ProfileLine>,
}

impl Dump {
    /// Parses JSONL text produced by [`crate::export::export_jsonl`].
    ///
    /// # Errors
    ///
    /// Returns a message naming the offending line on malformed JSON, a
    /// missing or mismatched header, or an unknown span stage.
    pub fn parse(text: &str) -> Result<Dump, String> {
        let mut dump = Dump::default();
        let mut saw_header = false;
        for (i, raw) in text.lines().enumerate() {
            if raw.trim().is_empty() {
                continue;
            }
            let line: ObsLine =
                serde_json::from_str(raw).map_err(|e| format!("line {}: {e}", i + 1))?;
            match line {
                ObsLine::Header {
                    schema_version,
                    run,
                    seed,
                    finished_at_ticks,
                } => {
                    if schema_version != OBS_SCHEMA_VERSION {
                        return Err(format!(
                            "line {}: schema version {schema_version}, \
                             this inspector reads {OBS_SCHEMA_VERSION}",
                            i + 1
                        ));
                    }
                    dump.run = run;
                    dump.seed = seed;
                    dump.finished_at_ticks = finished_at_ticks;
                    saw_header = true;
                }
                ObsLine::Span {
                    at_ticks,
                    span,
                    stage,
                    site,
                    peer,
                    detail,
                } => {
                    let stage = SpanStage::from_name(&stage)
                        .ok_or_else(|| format!("line {}: unknown stage `{stage}`", i + 1))?;
                    dump.spans.push(SpanEvent {
                        at: SimTime::from_ticks(at_ticks),
                        span: SpanId(span),
                        stage,
                        site,
                        peer,
                        detail,
                    });
                }
                ObsLine::Recovery {
                    at_ticks,
                    site,
                    backend,
                    replayed_records,
                    recovered_messages,
                    recovered_pending,
                    recovered_forwards,
                    lost_messages,
                    torn_bytes,
                    segments,
                } => dump.recoveries.push(RecoverySummary {
                    at_ticks,
                    site,
                    backend,
                    replayed_records,
                    recovered_messages,
                    recovered_pending,
                    recovered_forwards,
                    lost_messages,
                    torn_bytes,
                    segments,
                }),
                ObsLine::Counter { scope, name, value } => {
                    dump.counters.push((scope, name, value));
                }
                ObsLine::Gauge {
                    scope,
                    name,
                    current,
                    average,
                } => dump.gauges.push((scope, name, current, average)),
                ObsLine::Hist {
                    scope,
                    name,
                    count,
                    mean,
                    p50,
                    p90,
                    p99,
                    max,
                } => dump.hists.push(HistSummary {
                    scope,
                    name,
                    count,
                    mean,
                    p50,
                    p90,
                    p99,
                    max,
                }),
                ObsLine::Metrics {
                    scope,
                    appended_records,
                    appended_bytes,
                    fsyncs,
                    rotations,
                    compactions,
                    compaction_chunks,
                    replayed_records,
                    replayed_bytes,
                    io_errors,
                } => dump.store.push((
                    scope,
                    StoreMetrics {
                        appended_records,
                        appended_bytes,
                        fsyncs,
                        rotations,
                        compactions,
                        compaction_chunks,
                        replayed_records,
                        replayed_bytes,
                        io_errors,
                    },
                )),
                ObsLine::Profile {
                    scope,
                    name,
                    at_ticks,
                    count,
                    ticks,
                } => dump.profile.push(ProfileLine {
                    scope,
                    name,
                    at_ticks,
                    count,
                    ticks,
                }),
            }
        }
        if !saw_header {
            return Err("dump has no Header line".to_owned());
        }
        Ok(dump)
    }

    /// The distinct scopes, in first-appearance order.
    pub fn scopes(&self) -> Vec<&str> {
        let mut out: Vec<&str> = Vec::new();
        let names = self
            .counters
            .iter()
            .map(|(s, _, _)| s.as_str())
            .chain(self.gauges.iter().map(|(s, _, _, _)| s.as_str()))
            .chain(self.hists.iter().map(|h| h.scope.as_str()));
        for s in names {
            if !out.contains(&s) {
                out.push(s);
            }
        }
        out
    }

    /// The causal timeline of one span: its events in order, one per line.
    /// Returns an error naming the span when the dump has no events for it.
    ///
    /// # Errors
    ///
    /// When no event carries the requested span id.
    pub fn timeline(&self, span: u64) -> Result<String, String> {
        let events: Vec<&SpanEvent> = self.spans.iter().filter(|e| e.span.0 == span).collect();
        if events.is_empty() {
            return Err(format!("no events for span s{span} in this dump"));
        }
        let mut out = format!("span s{span} — {} event(s)\n", events.len());
        for e in events {
            let _ = writeln!(out, "  {e}");
        }
        Ok(out)
    }

    /// A per-scope table of every counter and gauge: the per-server view
    /// (the paper's server-utilisation lens).
    pub fn servers(&self) -> String {
        let mut out = String::new();
        for scope in self.scopes() {
            let _ = writeln!(out, "{scope}");
            for (s, name, value) in &self.counters {
                if s == scope {
                    let _ = writeln!(out, "  {name} = {value}");
                }
            }
            for (s, name, current, average) in &self.gauges {
                if s == scope {
                    let _ = writeln!(
                        out,
                        "  {name} = {current} (time-weighted mean {average:.3})"
                    );
                }
            }
        }
        out
    }

    /// Latency percentiles plus fleet-wide counter totals.
    pub fn summary(&self) -> String {
        let mut out = format!(
            "run `{}` seed {} finished at {} tick(s): {} span event(s)\n",
            self.run,
            self.seed,
            self.finished_at_ticks,
            self.spans.len()
        );
        for r in &self.recoveries {
            let _ = writeln!(
                out,
                "  recovery at {} tick(s): n{} via {} — {} record(s) replayed, \
                 {} stored / {} pending / {} forward(s) recovered, {} lost, \
                 {} torn byte(s), {} segment(s)",
                r.at_ticks,
                r.site,
                r.backend,
                r.replayed_records,
                r.recovered_messages,
                r.recovered_pending,
                r.recovered_forwards,
                r.lost_messages,
                r.torn_bytes,
                r.segments
            );
        }
        let mut totals: Vec<(&str, u64)> = Vec::new();
        for (_, name, value) in &self.counters {
            match totals.iter_mut().find(|(n, _)| n == name) {
                Some((_, v)) => *v += value,
                None => totals.push((name, *value)),
            }
        }
        totals.sort_unstable();
        for (name, value) in totals {
            let _ = writeln!(out, "  {name} = {value}");
        }
        if !self.hists.is_empty() {
            let _ = writeln!(
                out,
                "  {:<28} {:>8} {:>9} {:>9} {:>9} {:>9}",
                "latency", "count", "p50", "p90", "p99", "max"
            );
            for h in &self.hists {
                let _ = writeln!(
                    out,
                    "  {:<28} {:>8} {:>9.3} {:>9.3} {:>9.3} {:>9.3}",
                    format!("{}/{}", h.scope, h.name),
                    h.count,
                    h.p50,
                    h.p90,
                    h.p99,
                    h.max
                );
            }
        }
        out
    }

    /// Re-runs the span conservation audit on the exported events — the
    /// same checker the simulator applies in-process, now on the dump as
    /// the evidence.
    pub fn audit(&self, require_terminal: bool) -> SpanAuditReport {
        let log = SpanLog::from_events(self.spans.clone());
        audit_spans(&log, require_terminal)
    }

    /// The hottest (actor-kind, event-kind) dispatch cells, ranked by
    /// sim-time busy attribution: where did the simulated time go?
    ///
    /// # Errors
    ///
    /// When the dump carries no profiler samples (the run did not enable
    /// profiling).
    pub fn top(&self) -> Result<String, String> {
        let mut cells: Vec<&ProfileLine> = self
            .profile
            .iter()
            .filter(|p| p.scope == "dispatch")
            .collect();
        if cells.is_empty() {
            return Err(
                "dump has no dispatch profile (was the run profiled? see enable_prof)".to_owned(),
            );
        }
        cells.sort_by(|a, b| {
            (b.ticks, b.count)
                .cmp(&(a.ticks, a.count))
                .then(a.name.cmp(&b.name))
        });
        let total_ticks: u64 = cells.iter().map(|c| c.ticks).sum();
        let total_count: u64 = cells.iter().map(|c| c.count).sum();
        let mut out = format!(
            "run `{}`: {} dispatch(es), {} busy tick(s) attributed\n",
            self.run, total_count, total_ticks
        );
        let _ = writeln!(
            out,
            "  {:<28} {:>10} {:>14} {:>7}",
            "kind/event", "count", "busy ticks", "busy%"
        );
        for c in cells {
            let share = if total_ticks == 0 {
                0.0
            } else {
                100.0 * c.ticks as f64 / total_ticks as f64
            };
            let _ = writeln!(
                out,
                "  {:<28} {:>10} {:>14} {:>6.1}%",
                c.name, c.count, c.ticks, share
            );
        }
        let pool: Vec<&ProfileLine> = self.profile.iter().filter(|p| p.scope == "pool").collect();
        if !pool.is_empty() {
            let _ = writeln!(out, "pool");
            for r in pool {
                let _ = writeln!(out, "  {} = {}", r.name, r.count);
            }
        }
        Ok(out)
    }

    /// The event-queue health view: structure aggregates plus the
    /// depth-over-time sample table.
    ///
    /// # Errors
    ///
    /// When the dump carries no queue profile samples.
    pub fn queues(&self) -> Result<String, String> {
        let aggs: Vec<&ProfileLine> = self
            .profile
            .iter()
            .filter(|p| p.scope == "queue" && p.name != "depth-sample")
            .collect();
        let samples: Vec<&ProfileLine> = self
            .profile
            .iter()
            .filter(|p| p.scope == "queue" && p.name == "depth-sample")
            .collect();
        if aggs.is_empty() && samples.is_empty() {
            return Err(
                "dump has no queue profile (was the run profiled? see enable_prof)".to_owned(),
            );
        }
        let mut out = format!("run `{}`: event-queue health\n", self.run);
        for a in aggs {
            let _ = writeln!(out, "  {} = {}", a.name, a.count);
        }
        if !samples.is_empty() {
            let max = samples.iter().map(|s| s.count).max().unwrap_or(0).max(1);
            let _ = writeln!(
                out,
                "  {:<14} {:>8}  depth over time",
                "at (ticks)", "depth"
            );
            for s in &samples {
                let bar = "#".repeat(((s.count * 40).div_ceil(max)) as usize);
                let _ = writeln!(out, "  {:<14} {:>8}  {bar}", s.at_ticks, s.count);
            }
        }
        Ok(out)
    }

    /// The whole dump as a Prometheus text-format snapshot: counters,
    /// gauges, histogram summaries, store durability metrics, and profiler
    /// aggregates as labelled families. Purely a rendering — values come
    /// from the dump, so the snapshot is as deterministic as the run.
    /// (Depth-timeline samples are omitted; they are a time series, not a
    /// snapshot — see [`Dump::queues`].)
    pub fn prom(&self) -> String {
        let mut out = String::new();
        let esc = |s: &str| s.replace('\\', "\\\\").replace('"', "\\\"");
        if !self.counters.is_empty() {
            out.push_str("# TYPE lems_counter counter\n");
            for (scope, name, value) in &self.counters {
                let _ = writeln!(
                    out,
                    "lems_counter{{scope=\"{}\",name=\"{}\"}} {value}",
                    esc(scope),
                    esc(name)
                );
            }
        }
        if !self.gauges.is_empty() {
            out.push_str("# TYPE lems_gauge gauge\n");
            for (scope, name, current, _) in &self.gauges {
                let _ = writeln!(
                    out,
                    "lems_gauge{{scope=\"{}\",name=\"{}\"}} {current}",
                    esc(scope),
                    esc(name)
                );
            }
        }
        if !self.hists.is_empty() {
            out.push_str("# TYPE lems_latency summary\n");
            for h in &self.hists {
                let scope = esc(&h.scope);
                let name = esc(&h.name);
                for (q, v) in [("0.5", h.p50), ("0.9", h.p90), ("0.99", h.p99)] {
                    let _ = writeln!(
                        out,
                        "lems_latency{{scope=\"{scope}\",name=\"{name}\",quantile=\"{q}\"}} {v}"
                    );
                }
                let _ = writeln!(
                    out,
                    "lems_latency_count{{scope=\"{scope}\",name=\"{name}\"}} {}",
                    h.count
                );
            }
        }
        if !self.store.is_empty() {
            out.push_str("# TYPE lems_store counter\n");
            for (scope, m) in &self.store {
                let scope = esc(scope);
                for (name, value) in [
                    ("appended_records", m.appended_records),
                    ("appended_bytes", m.appended_bytes),
                    ("fsyncs", m.fsyncs),
                    ("rotations", m.rotations),
                    ("compactions", m.compactions),
                    ("compaction_chunks", m.compaction_chunks),
                    ("replayed_records", m.replayed_records),
                    ("replayed_bytes", m.replayed_bytes),
                    ("io_errors", m.io_errors),
                ] {
                    let _ = writeln!(
                        out,
                        "lems_store{{scope=\"{scope}\",name=\"{name}\"}} {value}"
                    );
                }
            }
        }
        let prof: Vec<&ProfileLine> = self
            .profile
            .iter()
            .filter(|p| p.name != "depth-sample")
            .collect();
        if !prof.is_empty() {
            out.push_str("# TYPE lems_prof counter\n");
            for p in &prof {
                let _ = writeln!(
                    out,
                    "lems_prof{{scope=\"{}\",name=\"{}\"}} {}",
                    esc(&p.scope),
                    esc(&p.name),
                    p.count
                );
            }
            out.push_str("# TYPE lems_prof_busy_ticks counter\n");
            for p in &prof {
                if p.scope == "dispatch" {
                    let _ = writeln!(
                        out,
                        "lems_prof_busy_ticks{{scope=\"{}\",name=\"{}\"}} {}",
                        esc(&p.scope),
                        esc(&p.name),
                        p.ticks
                    );
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::export::{export_jsonl, RunTelemetry};
    use lems_sim::metrics::MetricsRegistry;
    use lems_sim::span::NO_NODE;

    fn t(u: f64) -> SimTime {
        SimTime::from_units(u)
    }

    fn demo_dump() -> Dump {
        let mut log = SpanLog::unbounded();
        let s = log.open_keyed(1, t(1.0), SpanStage::Submitted, 0);
        log.record(t(1.5), s, SpanStage::Probe, 0, 4, 0);
        log.record(t(2.0), s, SpanStage::Deposited, 4, NO_NODE, 0);
        log.record(t(9.0), s, SpanStage::Retrieved, 0, 4, 0);
        let c = log.open(t(8.0), SpanStage::CheckStarted, 0);
        log.record(t(9.0), c, SpanStage::CheckDone, 0, 4, 1);
        let mut m = MetricsRegistry::new();
        m.inc("deposited");
        m.gauge_add(t(2.0), "storage", 1.0);
        m.observe("delivery_latency", 1.0);
        let scopes = vec![("server:n4".to_owned(), m)];
        let recoveries = vec![lems_core::store::StoreRecovery {
            at: t(5.0),
            site: 4,
            backend: "wal",
            replayed_records: 12,
            recovered_messages: 1,
            recovered_pending: 0,
            recovered_forwards: 0,
            lost_messages: 0,
            torn_bytes: 7,
            segments: 1,
        }];
        let store = vec![(
            "server:n4".to_owned(),
            StoreMetrics {
                appended_records: 20,
                appended_bytes: 4_100,
                fsyncs: 22,
                rotations: 1,
                compactions: 0,
                compaction_chunks: 0,
                replayed_records: 12,
                replayed_bytes: 2_400,
                io_errors: 0,
            },
        )];
        let profile = vec![
            lems_sim::prof::ProfSample {
                scope: "dispatch",
                name: "server/deliver".to_owned(),
                at: t(0.0),
                count: 30,
                ticks: 9_000,
            },
            lems_sim::prof::ProfSample {
                scope: "dispatch",
                name: "host/timer".to_owned(),
                at: t(0.0),
                count: 5,
                ticks: 1_000,
            },
            lems_sim::prof::ProfSample {
                scope: "queue",
                name: "depth".to_owned(),
                at: t(0.0),
                count: 0,
                ticks: 0,
            },
            lems_sim::prof::ProfSample {
                scope: "queue",
                name: "depth-sample".to_owned(),
                at: t(3.0),
                count: 17,
                ticks: 0,
            },
        ];
        let text = export_jsonl(&RunTelemetry {
            run: "demo",
            seed: 7,
            finished_at: t(10.0),
            spans: &log,
            recoveries: &recoveries,
            scopes: &scopes,
            store: &store,
            profile: &profile,
        })
        .expect("exports");
        Dump::parse(&text).expect("parses")
    }

    #[test]
    fn round_trip_preserves_everything() {
        let d = demo_dump();
        assert_eq!(d.run, "demo");
        assert_eq!(d.seed, 7);
        assert_eq!(d.spans.len(), 6);
        assert_eq!(
            d.counters,
            vec![("server:n4".into(), "deposited".into(), 1)]
        );
        assert_eq!(d.gauges.len(), 1);
        assert_eq!(d.hists.len(), 1);
        assert_eq!(d.scopes(), vec!["server:n4"]);
        assert_eq!(d.recoveries.len(), 1);
        assert_eq!(d.recoveries[0].backend, "wal");
        assert_eq!(d.recoveries[0].replayed_records, 12);
        assert_eq!(d.recoveries[0].torn_bytes, 7);
        assert_eq!(d.store.len(), 1);
        assert_eq!(d.store[0].0, "server:n4");
        assert_eq!(d.store[0].1.fsyncs, 22);
        assert_eq!(d.profile.len(), 4);
        assert_eq!(d.profile[0].name, "server/deliver");
        assert_eq!(d.profile[0].ticks, 9_000);
    }

    #[test]
    fn top_ranks_dispatch_cells_by_busy_ticks() {
        let d = demo_dump();
        let out = d.top().expect("profiled dump");
        let deliver = out.find("server/deliver").expect("hot cell present");
        let timer = out.find("host/timer").expect("cool cell present");
        assert!(deliver < timer, "rows must be ranked by busy ticks");
        assert!(out.contains("90.0%"), "busy share must be rendered:\n{out}");
        // A dump with no profile refuses, naming the likely cause.
        let mut bare = d.clone();
        bare.profile.clear();
        assert!(bare.top().unwrap_err().contains("enable_prof"));
    }

    #[test]
    fn queues_renders_aggregates_and_depth_timeline() {
        let d = demo_dump();
        let out = d.queues().expect("profiled dump");
        assert!(out.contains("depth = 0"));
        assert!(out.contains("17"), "depth sample value:\n{out}");
        assert!(out.contains('#'), "depth bar:\n{out}");
        let mut bare = d.clone();
        bare.profile.clear();
        assert!(bare.queues().is_err());
    }

    #[test]
    fn prom_snapshot_has_labelled_families() {
        let d = demo_dump();
        let out = d.prom();
        assert!(out.contains("# TYPE lems_counter counter"));
        assert!(out.contains("lems_counter{scope=\"server:n4\",name=\"deposited\"} 1"));
        assert!(out.contains("lems_store{scope=\"server:n4\",name=\"fsyncs\"} 22"));
        assert!(
            out.contains("lems_prof_busy_ticks{scope=\"dispatch\",name=\"server/deliver\"} 9000")
        );
        assert!(
            !out.contains("depth-sample"),
            "timeline samples are not a snapshot"
        );
        // Rendering twice is byte-identical (pure function of the dump).
        assert_eq!(out, d.prom());
    }

    #[test]
    fn timeline_lists_one_span_in_order() {
        let d = demo_dump();
        let tl = d.timeline(0).expect("span exists");
        assert!(tl.contains("4 event(s)"));
        assert!(tl.contains("submitted"));
        assert!(tl.contains("retrieved"));
        assert!(!tl.contains("check"), "span 1 must not leak in");
        assert!(d.timeline(99).is_err());
    }

    #[test]
    fn audit_matches_in_process_verdict() {
        let d = demo_dump();
        let report = d.audit(true);
        assert!(report.is_clean(), "violations: {:?}", report.violations);
        assert_eq!(report.retrieved, 1);
        assert_eq!(report.checks_done, 1);
    }

    #[test]
    fn summary_and_servers_render() {
        let d = demo_dump();
        let s = d.summary();
        assert!(s.contains("deposited = 1"));
        assert!(s.contains("recovery at 5000000 tick(s): n4 via wal"));
        assert!(s.contains("server:n4/delivery_latency"));
        let sv = d.servers();
        assert!(sv.contains("server:n4"));
        assert!(sv.contains("storage"));
    }

    #[test]
    fn parse_rejects_bad_input() {
        assert!(Dump::parse("").is_err(), "no header");
        assert!(Dump::parse("{\"nonsense\":1}\n").is_err());
        let good = export_jsonl(&RunTelemetry {
            run: "x",
            seed: 1,
            finished_at: t(1.0),
            spans: &SpanLog::unbounded(),
            recoveries: &[],
            scopes: &[],
            store: &[],
            profile: &[],
        })
        .expect("exports");
        let bad = good.replace("\"schema_version\":3", "\"schema_version\":99");
        let err = Dump::parse(&bad).expect_err("version mismatch");
        assert!(err.contains("schema version 99"));
    }
}
