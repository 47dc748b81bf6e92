//! The System-2 workload (`s2-roam`): a `lems_locindep` `RoamDeployment`
//! in one region whose users move between hosts while mail flows, checked
//! against the benchmark's own mobility schedule.

use std::collections::{BTreeMap, BTreeSet};

use lems_core::name::MailName;
use lems_core::user::UserId;
use lems_core::workload::{
    generate, generate_mobility, MobilityConfig, WorkloadConfig, WorkloadEvent,
};
use lems_locindep::actors::RoamDeployment;
use lems_net::generators::{multi_region, MultiRegionConfig};
use lems_net::graph::NodeId;
use lems_net::topology::{RegionId, Topology};
use lems_sim::rng::SimRng;
use lems_sim::time::{SimDuration, SimTime};

use crate::ledger::{roles, run_stepped, Recorder};
use crate::measure::{count_allocs, histogram_quantile};
use crate::{Outcome, Variant};

/// Seed of the topology; like System 1's, it is the system under test and
/// does not vary with `--seed`.
const TOPOLOGY_SEED: u64 = 42;
const USERS_PER_HOST: u32 = 40;
/// Location-tracking sub-groups.
const GROUPS: usize = 32;
/// Seeded sends per round; one closing message per user comes on top.
const SENDS: usize = 20_000;
/// Length of the seeded traffic and movement phase, in simulated time units.
const HORIZON: f64 = 1_000.0;
const MEAN_MOVE_INTERVAL: f64 = 200.0;
/// The closing messages go out this long after the traffic phase quiesced.
const CLOSING_AFTER: f64 = 10.0;
const EVENT_BUDGET: u64 = 20_000_000;

/// The fixed System-2 topology: one region of 25 hosts and 5 servers.
fn topology() -> Topology {
    multi_region(
        &mut SimRng::seed(TOPOLOGY_SEED),
        &MultiRegionConfig {
            regions: 1,
            hosts_per_region: 25,
            servers_per_region: 5,
            ..MultiRegionConfig::default()
        },
    )
}

/// Every input of one round.
struct Plan {
    names: Vec<MailName>,
    /// `(at, from, to)`, ascending by time.
    sends: Vec<(SimTime, usize, usize)>,
    /// `(at, user, host)`, ascending by time; every user logs in at their
    /// primary host at time zero.
    logins: Vec<(SimTime, usize, NodeId)>,
}

fn plan(seed: u64, topo: &Topology, d: &RoamDeployment) -> Plan {
    let rng = SimRng::seed(seed);
    let names: Vec<MailName> = d.users.keys().cloned().collect();
    let users = names.len();
    let hosts = topo.hosts_in(RegionId(0));
    // generate_mobility picks host indices with 0 as the user's primary.
    let host_lists: Vec<Vec<NodeId>> = names
        .iter()
        .map(|n| {
            let home = d.users[n];
            std::iter::once(home)
                .chain(hosts.iter().copied().filter(|&h| h != home))
                .collect()
        })
        .collect();
    let ids: Vec<UserId> = (0..users).map(UserId).collect();
    let schedule = generate_mobility(
        &mut rng.fork("mobility"),
        &ids,
        hosts.len(),
        &MobilityConfig {
            mean_move_interval: SimDuration::from_units(MEAN_MOVE_INTERVAL),
            homing_bias: 0.5,
            horizon: SimTime::from_units(HORIZON),
        },
    );
    let logins = schedule
        .logins
        .iter()
        .map(|&(at, u, idx)| (at, u.0, host_lists[u.0][idx]))
        .collect();
    let population: Vec<(UserId, RegionId)> = ids.iter().map(|&u| (u, RegionId(0))).collect();
    let generated = generate(
        &mut rng.fork("traffic"),
        &population,
        &WorkloadConfig {
            // ~10% more than needed; the first SENDS are kept.
            mean_interarrival: SimDuration::from_units(
                HORIZON * users as f64 / (SENDS as f64 * 1.1),
            ),
            mean_check_interval: SimDuration::from_units(HORIZON * 1e6),
            local_bias: 0.8,
            zipf_exponent: 0.8,
            horizon: SimTime::from_units(HORIZON),
        },
    );
    let sends: Vec<(SimTime, usize, usize)> = generated
        .events()
        .iter()
        .filter_map(|ev| match *ev {
            WorkloadEvent::Send { at, from, to } => Some((at, from.0, to.0)),
            WorkloadEvent::CheckMail { .. } => None,
        })
        .take(SENDS)
        .collect();
    assert_eq!(sends.len(), SENDS, "seed {seed} generated too few sends");
    Plan {
        names,
        sends,
        logins,
    }
}

/// Runs one round at `seed`: the traffic and movement phase to quiescence,
/// then one closing message per user, then the checks.
pub fn round(seed: u64, variant: Variant, rec: &mut Recorder) -> Outcome {
    let topo = rec.span("setup.topology", |_| topology());
    let hosts = topo.hosts_in(RegionId(0));
    let per_host = vec![USERS_PER_HOST; hosts.len()];
    let mut d = rec.span("setup.build", |_| {
        RoamDeployment::build(&topo, &per_host, GROUPS, seed)
    });
    let plan = rec.span("setup.generate", |_| plan(seed, &topo, &d));
    rec.span("setup.inject", |_| {
        for &(at, u, host) in &plan.logins {
            d.login_at(at, &plan.names[u], host);
        }
        for &(at, from, to) in &plan.sends {
            d.send_at(at, &plan.names[from], &plan.names[to]);
        }
    });

    // Where each user last logged in, and every host they ever used.
    let mut last_host = vec![NodeId(usize::MAX); plan.names.len()];
    let mut visited: Vec<BTreeSet<NodeId>> = vec![BTreeSet::new(); plan.names.len()];
    for &(_, u, h) in &plan.logins {
        last_host[u] = h;
        visited[u].insert(h);
    }
    let servers = topo
        .servers_in(RegionId(0))
        .into_iter()
        .filter_map(|s| d.transport.actor_of(s).ok());
    let roles = roles(d.sim.actor_count(), servers);
    let users = plan.names.len();
    let mut before_closing = Vec::new();
    let (quiesced, ledger) = rec.span("run", |_| {
        let phase = |d: &mut RoamDeployment| {
            if variant.stepped {
                let (bins, allocs) = count_allocs(|| run_stepped(&mut d.sim, &roles, EVENT_BUDGET));
                (bins.quiesced, Some((bins, allocs)))
            } else {
                (d.sim.run_to_quiescence_bounded(EVENT_BUDGET), None)
            }
        };
        let (traffic_quiesced, mut ledger) = phase(&mut d);
        before_closing = (0..users)
            .map(|u| d.alerts_at(last_host[u], &plan.names[u]))
            .collect();
        let start = d.sim.now() + SimDuration::from_units(CLOSING_AFTER);
        for u in 0..users {
            let from = (u + 1) % users;
            let at = start + SimDuration::from_units(0.01 * u as f64);
            d.send_at(at, &plan.names[from], &plan.names[u]);
        }
        let (closing_quiesced, closing) = phase(&mut d);
        if let (Some((bins, allocs)), Some((b, a))) = (ledger.as_mut(), closing) {
            bins.absorb(b);
            allocs.absorb(a);
        }
        (traffic_quiesced && closing_quiesced, ledger)
    });

    let mut out = rec.span("check", |_| {
        let mut v = Vec::new();
        if !quiesced {
            v.push(format!("did not quiesce within {EVENT_BUDGET} events"));
        }
        let attempted = (plan.sends.len() + users) as u64;
        let st = d.stats.borrow();
        if st.submitted != attempted {
            v.push(format!(
                "submitted {} != generated sends {attempted}",
                st.submitted
            ));
        }
        if st.delivery_failures > 0 {
            v.push(format!("{} deliveries abandoned", st.delivery_failures));
        }
        let mut alerts_total = 0;
        let mut stray: BTreeMap<String, u64> = BTreeMap::new();
        for (u, name) in plan.names.iter().enumerate() {
            for &h in &hosts {
                let a = d.alerts_at(h, name);
                alerts_total += a;
                if a > 0 && !visited[u].contains(&h) {
                    *stray.entry(name.to_string()).or_default() += a;
                }
            }
            let closing = d.alerts_at(last_host[u], name) - before_closing[u];
            if closing != 1 {
                v.push(format!(
                    "{name}'s closing message alerted its last host {closing} times"
                ));
            }
        }
        if alerts_total != attempted {
            v.push(format!("{alerts_total} alerts for {attempted} sends"));
        }
        for (name, a) in &stray {
            v.push(format!("{a} alerts for {name} at a host it never used"));
        }
        let merged = d.merged_metrics();
        let msgs = attempted as f64;
        let mut layer = BTreeMap::new();
        layer.insert(
            "route.submit_probes_per_msg",
            merged.counter("submit_probes") as f64 / msgs,
        );
        layer.insert(
            "roam.consults_per_msg",
            merged.counter("consults") as f64 / msgs,
        );
        layer.insert(
            "roam.relay_probes_per_msg",
            merged.counter("relay_probes") as f64 / msgs,
        );
        layer.insert(
            "session.retransmits_per_msg",
            merged.counter("retransmits") as f64 / msgs,
        );
        layer.insert(
            "session.timers_fired",
            d.sim.counters().timers_fired.get() as f64,
        );
        let latency = merged.histogram("notify_latency").map_or((0.0, 0.0), |h| {
            (histogram_quantile(h, 0.5), histogram_quantile(h, 0.99))
        });
        Outcome {
            attempted,
            failures: crate::Failures {
                other: attempted.saturating_sub(alerts_total),
                ..crate::Failures::default()
            },
            violations: v,
            latency,
            layer,
            ..Outcome::default()
        }
    });
    out.bins = ledger.map(|l| l.0);
    out.allocs = ledger.map(|l| l.1);
    out
}
