//! The System-1 workloads (`s1-send`, `s1-getmail`): a `lems_syntax`
//! `Deployment` over a four-region topology, driven by the
//! `lems_core::workload` Poisson/Zipf generator and checked against the
//! benchmark's own send list.

use std::collections::{BTreeMap, BTreeSet};
use std::hint::black_box;

use lems_core::message::BounceReason;
use lems_core::name::MailName;
use lems_core::user::UserId;
use lems_core::workload::{generate, WorkloadConfig, WorkloadEvent};
use lems_net::generators::{multi_region, MultiRegionConfig};
use lems_net::graph::NodeId;
use lems_net::topology::Topology;
use lems_obs::export::{export_jsonl, RunTelemetry};
use lems_sim::rng::SimRng;
use lems_sim::time::{SimDuration, SimTime};
use lems_store::{DurabilityConfig, WalConfig};
use lems_syntax::actors::{Deployment, DeploymentConfig, ServerFailurePlan, TIMEOUT_SLACK};
use lems_syntax::assign::{solve, AssignmentProblem};

use crate::ledger::{roles, run_stepped, Recorder};
use crate::measure::{count_allocs, histogram_quantile};
use crate::{Failures, Outcome, Variant};

/// One System-1 workload.
pub struct S1Spec {
    /// Seeded sends per round (the probes of the named faults come on top).
    pub sends: usize,
    /// Mailbox checks per seeded send during the traffic phase.
    pub checks_per_send: f64,
    /// Whether servers keep mailboxes in the WAL backend (per-record sync)
    /// rather than the Ideal in-memory store.
    pub wal: bool,
    /// Whether one server per region suffers seeded random outages.
    pub outages: bool,
}

/// `s1-send`: forwarding, message copying and WAL appends; one large drain.
pub const S1_SEND: S1Spec = S1Spec {
    sends: 100_000,
    checks_per_send: 0.0,
    wal: true,
    outages: false,
};

/// `s1-getmail`: the §3.1.2c GetMail walk under server outages.
pub const S1_GETMAIL: S1Spec = S1Spec {
    sends: 40_000,
    checks_per_send: 2.5,
    wal: false,
    outages: true,
};

/// Seed of the topology. The topology, the population and the §3.1.1
/// assignment are the system being sized, not its input, so they stay the
/// same for every `--seed`: only the traffic and the outages vary.
const TOPOLOGY_SEED: u64 = 42;
const USERS_PER_HOST: u32 = 20;
/// Length of the seeded traffic phase, in simulated time units.
const HORIZON: f64 = 1_000.0;
/// The named-fault probes start here, after every seeded outage has healed.
const PROBE_AT: f64 = HORIZON + 200.0;
/// The forwarding-loop probes, after the stranded-mail probe has settled.
const LOOP_PROBE_AT: f64 = PROBE_AT + 300.0;
/// Closing GetMail sweeps (one check per user each).
const SWEEP_AT: [f64; 2] = [LOOP_PROBE_AT + 100.0, LOOP_PROBE_AT + 200.0];
/// Mean up time and mean outage length of a failing server. Many short
/// outages delay a share of the mail that barely changes from seed to seed,
/// which keeps `latency_p99` steady; a few long ones put it anywhere
/// between 30 and 60 units, depending on how much mail they catch.
const MTBF: f64 = 10.0;
const MTTR: f64 = 2.0;
/// Messages the stranded-mail probe sends.
const STRANDED_PROBE_MESSAGES: usize = 4;
/// Event budget of one round; the run fails if it does not quiesce within.
const EVENT_BUDGET: u64 = 20_000_000;

/// The fixed System-1 topology: 4 regions × 25 hosts × 5 servers.
pub fn topology() -> Topology {
    multi_region(
        &mut SimRng::seed(TOPOLOGY_SEED),
        &MultiRegionConfig {
            regions: 4,
            hosts_per_region: 25,
            servers_per_region: 5,
            ..MultiRegionConfig::default()
        },
    )
}

/// Who is who in the built deployment, as the benchmark derives it from
/// the names and the published authority lists.
struct Population {
    names: Vec<MailName>,
    home: Vec<NodeId>,
    /// Users whose primary authority server lies outside their home region.
    /// Regional resolution sends their mail back and forth between the two
    /// regions until the hop budget runs out (the forwarding-loop fault).
    loop_prone: BTreeSet<usize>,
    /// Servers with seeded outages: the first server of each region.
    failing: BTreeSet<NodeId>,
    /// Users whose primary is a failing server.
    on_failing: BTreeSet<usize>,
}

impl Population {
    fn new(topo: &Topology, d: &Deployment, spec: &S1Spec) -> Self {
        let names = d.user_names();
        let home: Vec<NodeId> = names
            .iter()
            .map(|n| {
                topo.node_by_name(n.host())
                    .expect("user names carry their host")
            })
            .collect();
        let failing: BTreeSet<NodeId> = if spec.outages {
            topo.region_ids()
                .into_iter()
                .filter_map(|r| topo.servers_in(r).first().copied())
                .collect()
        } else {
            BTreeSet::new()
        };
        let mut loop_prone = BTreeSet::new();
        let mut on_failing = BTreeSet::new();
        for (i, name) in names.iter().enumerate() {
            let rec = d.directory.by_name(name).expect("every user is registered");
            let list = rec.authorities.servers();
            if topo.region(rec.authorities.primary()) != topo.region(home[i]) {
                loop_prone.insert(i);
            }
            if failing.contains(&rec.authorities.primary()) {
                on_failing.insert(i);
            }
            // One failing server per region and three distinct servers per
            // list: no walk can find every server down.
            assert!(
                !list.iter().all(|s| failing.contains(s)),
                "{name}: every authority server can fail at once"
            );
        }
        Population {
            names,
            home,
            loop_prone,
            failing,
            on_failing,
        }
    }

    /// Users seeded traffic may address: mail to them is delivered by every
    /// correct run. Mail to loop-prone users always bounces, and mail to a
    /// user whose primary is failing can land on a secondary in a way that
    /// strands it; both faults are exercised by the fixed probes instead.
    fn is_safe_recipient(&self, i: usize) -> bool {
        !self.loop_prone.contains(&i) && !self.on_failing.contains(&i)
    }
}

/// A send the benchmark injects. Message ids are issued sequentially as the
/// hosts handle sends, so the k-th send in injection order carries id k.
#[derive(Clone, Copy)]
struct Send {
    at: SimTime,
    from: usize,
    to: usize,
    kind: SendKind,
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum SendKind {
    Seeded,
    LoopProbe,
    StrandedProbe,
}

/// Every input of one round.
struct Plan {
    sends: Vec<Send>,
    checks: Vec<(SimTime, usize)>,
    outages: ServerFailurePlan,
}

fn plan(spec: &S1Spec, seed: u64, topo: &Topology, d: &Deployment, pop: &Population) -> Plan {
    let rng = SimRng::seed(seed);
    let users = pop.names.len();
    let population: Vec<(UserId, _)> = (0..users)
        .map(|i| (UserId(i), topo.region(pop.home[i])))
        .collect();
    let mean_check_interval = if spec.checks_per_send > 0.0 {
        HORIZON * users as f64 / (spec.sends as f64 * spec.checks_per_send)
    } else {
        // Effectively never; such checks are dropped below anyway.
        HORIZON * 1e6
    };
    // Generate ~30% more sends to safe recipients than needed (more on the
    // rare seed whose popular users are mostly unsafe), then keep a seeded
    // choice of exactly `spec.sends` of them, spread over the whole phase.
    let safe_users = (0..users).filter(|&i| pop.is_safe_recipient(i)).count();
    let mut surplus = 1.3 * users as f64 / safe_users as f64;
    let mut attempt = 0;
    let (generated, safe) = loop {
        let generated = generate(
            &mut rng.fork("traffic").fork_u64(attempt),
            &population,
            &WorkloadConfig {
                mean_interarrival: SimDuration::from_units(
                    HORIZON * users as f64 / (spec.sends as f64 * surplus),
                ),
                mean_check_interval: SimDuration::from_units(mean_check_interval),
                local_bias: 0.8,
                zipf_exponent: 0.8,
                horizon: SimTime::from_units(HORIZON),
            },
        );
        let safe: Vec<Send> = generated
            .events()
            .iter()
            .filter_map(|ev| match *ev {
                WorkloadEvent::Send { at, from, to } if pop.is_safe_recipient(to.0) => Some(Send {
                    at,
                    from: from.0,
                    to: to.0,
                    kind: SendKind::Seeded,
                }),
                _ => None,
            })
            .collect();
        if safe.len() >= spec.sends {
            break (generated, safe);
        }
        surplus *= 1.5;
        attempt += 1;
    };
    let mut keep: Vec<usize> = (0..safe.len()).collect();
    rng.fork("subsample").shuffle(&mut keep);
    keep.truncate(spec.sends);
    keep.sort_unstable();
    let mut sends: Vec<Send> = keep.iter().map(|&k| safe[k]).collect();

    let stranded = spec.outages.then(|| stranded_probe(topo, d, pop));
    let probe_user = stranded.as_ref().map(|p| p.recipient);
    let checks_wanted = spec.checks_per_send > 0.0;
    let mut checks: Vec<(SimTime, usize)> = generated
        .events()
        .iter()
        .filter_map(|ev| match *ev {
            WorkloadEvent::CheckMail { at, user }
                if checks_wanted && Some(user.0) != probe_user =>
            {
                Some((at, user.0))
            }
            _ => None,
        })
        .collect();

    let mut outages = ServerFailurePlan::new();
    if spec.outages {
        let failing: Vec<NodeId> = pop.failing.iter().copied().collect();
        let random = ServerFailurePlan::random(
            &mut rng.fork("outages"),
            &failing,
            SimDuration::from_units(MTBF),
            SimDuration::from_units(MTTR),
            SimTime::from_units(HORIZON),
        );
        // Every seeded outage heals by the end of the traffic phase.
        let end = SimTime::from_units(HORIZON);
        for (&server, list) in &random.outages {
            for &(down, up) in list {
                outages.add(server, down, up.min(end));
            }
        }
    }
    if let Some(p) = stranded {
        outages.add(p.server, p.down, p.up);
        for k in 0..STRANDED_PROBE_MESSAGES {
            sends.push(Send {
                at: p.send_at + SimDuration::from_units(0.1 * k as f64),
                from: p.sender,
                to: p.recipient,
                kind: SendKind::StrandedProbe,
            });
        }
        checks.push((p.check_at, p.recipient));
    }
    // One message to every loop-prone user, from the first user that is
    // not one (name order).
    let sender = (0..users)
        .find(|i| !pop.loop_prone.contains(i))
        .expect("some user resolves within their region");
    for (k, &to) in pop.loop_prone.iter().enumerate() {
        sends.push(Send {
            at: SimTime::from_units(LOOP_PROBE_AT + 0.1 * k as f64),
            from: sender,
            to,
            kind: SendKind::LoopProbe,
        });
    }
    let sweeps = if spec.outages { 2 } else { 1 };
    for &at in &SWEEP_AT[..sweeps] {
        for u in 0..users {
            checks.push((SimTime::from_units(at + 0.01 * u as f64), u));
        }
    }
    sends.sort_by_key(|s| s.at);
    Plan {
        sends,
        checks,
        outages,
    }
}

/// A fixed scenario that strands mail every time (§3.1.2c): the
/// recipient's primary goes down; their secondary, accepting mail from a
/// local sender, exhausts its retries against the primary and deposits the
/// mail locally; the recipient checks in the gap between the primary's
/// restart and that deposit. Every later check ends its walk at the
/// primary, whose `LastStartTime` now precedes the user's
/// `LastCheckingTime`, so the secondary is never polled again.
struct StrandedProbe {
    server: NodeId,
    down: SimTime,
    up: SimTime,
    sender: usize,
    recipient: usize,
    send_at: SimTime,
    check_at: SimTime,
}

fn stranded_probe(topo: &Topology, d: &Deployment, pop: &Population) -> StrandedProbe {
    let authorities = |i: usize| {
        d.directory
            .by_name(&pop.names[i])
            .expect("every user is registered")
            .authorities
            .servers()
            .to_vec()
    };
    // The first user (name order) on a failing primary whose secondary is
    // in their own region, and the first other user of that region whose
    // primary is that secondary.
    let (recipient, sender) = pop
        .on_failing
        .iter()
        .find_map(|&v| {
            let list = authorities(v);
            let region = topo.region(pop.home[v]);
            if list.len() < 2 || pop.loop_prone.contains(&v) || topo.region(list[1]) != region {
                return None;
            }
            (0..pop.names.len())
                .find(|&x| {
                    x != v && topo.region(pop.home[x]) == region && authorities(x)[0] == list[1]
                })
                .map(|x| (v, x))
        })
        .expect("some user on a failing primary has an in-region secondary with users of its own");
    let list = authorities(recipient);
    let (primary, secondary) = (list[0], list[1]);
    let proc = DeploymentConfig::default().server_spec.proc_time;
    let delay = |a: NodeId, b: NodeId| d.transport.delay(a, b).as_units();
    // A message arrives its link delay plus the sender's processing time
    // after it is sent.
    let hop = |a: NodeId, b: NodeId| delay(a, b) + proc;
    // The secondary's per-attempt timeout base (round trip, processing,
    // slack), as the server computes it; the three attempts back off 1, 2, 4
    // with up to 10% jitter, so the last goes out by 3.3 bases and the
    // secondary gives up no sooner than 7 bases after the first.
    let base = 2.0 * delay(secondary, primary) + proc + TIMEOUT_SLACK;
    let first_probe = PROBE_AT + delay(pop.home[sender], secondary);
    // Stay down until the last probe has arrived, at most 3.3 bases plus one
    // hop after the first.
    let up = first_probe + 3.3 * base + hop(secondary, primary) + 0.5;
    let check_at = up + 0.5;
    let retrieve_reaches_secondary = check_at
        + hop(pop.home[recipient], primary)
        + hop(primary, pop.home[recipient])
        + hop(pop.home[recipient], secondary);
    assert!(
        retrieve_reaches_secondary + 1.0 < first_probe + 7.0 * base,
        "the stranded-mail probe's check cannot fit before the deposit"
    );
    StrandedProbe {
        server: primary,
        down: SimTime::from_units(PROBE_AT - 1.0),
        up: SimTime::from_units(up),
        sender,
        recipient,
        send_at: SimTime::from_units(PROBE_AT),
        check_at: SimTime::from_units(check_at),
    }
}

/// Runs one round of `spec` at `seed`: builds the deployment, injects the
/// plan, runs to quiescence and checks every outcome.
pub fn round(spec: &S1Spec, seed: u64, variant: Variant, rec: &mut Recorder) -> Outcome {
    let topo = rec.span("setup.topology", |_| topology());
    let per_host = vec![USERS_PER_HOST; topo.hosts().len()];
    let cfg = DeploymentConfig {
        seed,
        durability: if spec.wal && !variant.ideal_store {
            DurabilityConfig::Wal(WalConfig::default())
        } else {
            DurabilityConfig::Ideal
        },
        ..DeploymentConfig::default()
    };
    if variant.stepped {
        // Deployment::build solves the assignment internally; time the same
        // solve on the same inputs on its own.
        rec.span("setup.assign", |_| {
            let problem =
                AssignmentProblem::from_topology(&topo, &per_host, cfg.server_spec, cfg.cost_model);
            black_box(solve(&problem, cfg.balance));
        });
    }
    let mut d = rec.span("setup.build", |_| Deployment::build(&topo, &per_host, &cfg));
    if variant.spans {
        d.enable_spans();
    }
    let (pop, plan) = rec.span("setup.generate", |_| {
        let pop = Population::new(&topo, &d, spec);
        let plan = plan(spec, seed, &topo, &d, &pop);
        (pop, plan)
    });
    rec.span("setup.inject", |_| {
        for s in &plan.sends {
            d.send_at(s.at, &pop.names[s.from], &pop.names[s.to]);
        }
        for &(at, u) in &plan.checks {
            d.check_at(at, &pop.names[u]);
        }
        d.apply_server_failures(&plan.outages);
    });

    let (quiesced, bins, allocs) = rec.span("run", |_| {
        if variant.stepped {
            let servers = topo.servers().into_iter().filter_map(|s| d.server_actor(s));
            let roles = roles(d.sim.actor_count(), servers);
            let (bins, allocs) = count_allocs(|| run_stepped(&mut d.sim, &roles, EVENT_BUDGET));
            (bins.quiesced, Some(bins), Some(allocs))
        } else {
            (d.sim.run_to_quiescence_bounded(EVENT_BUDGET), None, None)
        }
    });

    let mut out = rec.span("check", |_| check(&topo, &d, &pop, &plan, quiesced));
    out.bins = bins;
    out.allocs = allocs;
    if variant.spans {
        let events = rec.span("export", |_| {
            let scopes = d.metrics_snapshot();
            let store = d.store_metrics_snapshot();
            let spans = d.spans.borrow();
            let recoveries = d.recoveries.borrow();
            let dump = export_jsonl(&RunTelemetry {
                run: "mailbench",
                seed,
                finished_at: d.sim.now(),
                spans: &spans,
                recoveries: &recoveries,
                scopes: &scopes,
                store: &store,
                profile: &[],
            })
            .expect("an unbounded span log exports");
            black_box(dump);
            spans.events().len()
        });
        out.layer.insert("obs.span_events", events as f64);
        out.layer.insert("obs.export_s", rec.last("export"));
    }
    out
}

/// The correctness checks and the failure ledger of one round. Everything
/// expected is computed from the benchmark's own send list and names.
fn check(
    topo: &Topology,
    d: &Deployment,
    pop: &Population,
    plan: &Plan,
    quiesced: bool,
) -> Outcome {
    let mut v = Vec::new();
    if !quiesced {
        v.push(format!("did not quiesce within {EVENT_BUDGET} events"));
    }
    let st = d.stats.borrow();
    let n = plan.sends.len() as u64;
    if st.submitted != n || st.ledger_submitted.len() as u64 != n {
        v.push(format!(
            "submitted {} (ledger {}) != generated sends {n}",
            st.submitted,
            st.ledger_submitted.len()
        ));
    }
    if let Some(last) = st.ledger_submitted.iter().next_back() {
        if last.0 + 1 != n {
            v.push(format!("message ids run to {} for {n} sends", last.0));
        }
    }
    let stranded = d.stranded_mail();
    let mut stranded_ids = BTreeSet::new();
    let mut failures = Failures::default();
    for (_, owner, id, _) in &stranded {
        let Some(send) = plan.sends.get(id.0 as usize) else {
            v.push(format!("stranded message {id:?} was never sent"));
            continue;
        };
        if pop.names[send.to] != *owner {
            v.push(format!(
                "stranded {id:?} sits in {owner}'s mailbox, sent to {}",
                pop.names[send.to]
            ));
        }
        if !stranded_ids.insert(*id) {
            v.push(format!("{id:?} is stored twice"));
        }
    }
    let mut retrieved_per_host: BTreeMap<NodeId, u64> = BTreeMap::new();
    for id in &st.ledger_submitted {
        let send = &plan.sends[id.0 as usize];
        let retrieved = st.ledger_retrieved.contains(id);
        let bounced = st.ledger_bounced.get(id);
        let is_stranded = stranded_ids.contains(id);
        let outcomes = u32::from(retrieved) + u32::from(bounced.is_some()) + u32::from(is_stranded);
        if outcomes != 1 {
            v.push(format!("{id:?} has {outcomes} outcomes"));
        }
        if retrieved {
            *retrieved_per_host.entry(pop.home[send.to]).or_default() += 1;
        }
        match (bounced, is_stranded) {
            (Some(BounceReason::RegionUnreachable), _) if send.kind == SendKind::LoopProbe => {
                failures.forwarding_loop += 1;
            }
            (Some(reason), _) => {
                failures.other += 1;
                v.push(format!(
                    "{id:?} to {} bounced: {reason:?}",
                    pop.names[send.to]
                ));
            }
            (None, true) if send.kind == SendKind::StrandedProbe => failures.stranded += 1,
            (None, true) => {
                failures.other += 1;
                v.push(format!("{id:?} to {} stranded", pop.names[send.to]));
            }
            (None, false) => {}
        }
    }
    // Each host's own retrieval counter must match the mail the benchmark
    // addressed to users homed there.
    let snapshot = d.metrics_snapshot();
    for h in topo.hosts() {
        let scope = format!("host:n{}", h.0);
        let counted = snapshot
            .iter()
            .find(|(s, _)| *s == scope)
            .map_or(0, |(_, m)| m.counter("retrieved"));
        let expected = retrieved_per_host.get(&h).copied().unwrap_or(0);
        if counted != expected {
            v.push(format!(
                "host {} retrieved {counted}, expected {expected}",
                topo.name(h)
            ));
        }
    }

    let merged = d.merged_metrics();
    let (p50, p99) = merged
        .histogram("delivery_latency")
        .map_or((0.0, 0.0), |h| {
            (histogram_quantile(h, 0.5), histogram_quantile(h, 0.99))
        });
    let msgs = n as f64;
    let c = d.sim.counters();
    let mut layer = BTreeMap::new();
    let store = d.store_metrics_snapshot();
    let sum = |f: fn(&lems_core::store::StoreMetrics) -> u64| -> f64 {
        store.iter().map(|(_, m)| f(m)).sum::<u64>() as f64
    };
    layer.insert("store.appends_per_msg", sum(|m| m.appended_records) / msgs);
    layer.insert("store.bytes_per_msg", sum(|m| m.appended_bytes) / msgs);
    layer.insert("store.fsyncs_per_msg", sum(|m| m.fsyncs) / msgs);
    layer.insert("store.compactions", sum(|m| m.compactions));
    layer.insert(
        "route.submit_probes_per_msg",
        merged.counter("submit_probes") as f64 / msgs,
    );
    layer.insert(
        "route.forward_probes_per_msg",
        merged.counter("forward_probes") as f64 / msgs,
    );
    let checks = merged.counter("checks_done") as f64;
    layer.insert("getmail.checks", checks);
    layer.insert(
        "getmail.polls_per_check",
        merged.counter("retrieve_probes") as f64 / checks.max(1.0),
    );
    layer.insert(
        "getmail.retrieve_p50",
        merged
            .histogram("end_to_end")
            .map_or(0.0, |h| histogram_quantile(h, 0.5)),
    );
    layer.insert(
        "session.retransmits_per_msg",
        merged.counter("retransmits") as f64 / msgs,
    );
    layer.insert("session.timers_fired", c.timers_fired.get() as f64);
    Outcome {
        attempted: n,
        failures,
        violations: v,
        latency: (p50, p99),
        layer,
        ..Outcome::default()
    }
}
