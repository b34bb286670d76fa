//! Mixed-role fleet runner: the mesh fleet of [`crate::mesh`] with the
//! paper's heterogeneous roles in it.
//!
//! Runs the mesh harness — oracle workload, jittered links, injection,
//! bit-for-bit matcher, one [`EventLoop`] on a virtual clock — with:
//!
//! * node 0 an [`ArchivalNode`] — syncs the mesh, folds credit events,
//!   and serves the HTTP/1.1 query API on a real loopback socket;
//! * node 1 a [`ValidationNode`] — wraps a full [`Gateway`]
//!   (authorization, signatures, credit bookkeeping), admits
//!   [`LightClient`] submissions, pushes the resulting transactions and
//!   credit events onto the mesh, and retains the event log for the
//!   replay cross-check;
//! * the rest plain relays carrying the oracle workload.
//!
//! The reference is an **oracle twin**: a second gateway fed the same
//! light submissions at the same instants before the fleet starts. Its
//! broadcasts and credit events, on top of the relay workload, define
//! the ledger every member must reach. The run passes only if **all
//! three role claims hold at once**:
//!
//! 1. every node — relays, the archival tangle, *and* the validation
//!    gateway's internal tangle — converges to the twin bit-for-bit
//!    (tips, cumulative weights, credit breakdowns), and the archival
//!    node's [`RolesOutcome::fingerprint`] equals the twin's;
//! 2. the validation node's from-scratch event-log replay matches its
//!    live ledger exactly ([`ValidationNode::verify_replay`]);
//! 3. every byte the archival node's HTTP endpoint sends over TCP is
//!    identical to the in-process oracle rendering
//!    ([`ArchivalNode::oracle_response`]) for the same request.

use crate::mesh::{build_workload, Fleet, ANTI_ENTROPY_MS, DIGEST_MS, MAX_MS, STEP_MS};
use biot_core::identity::node_id_of;
use biot_core::node::{Gateway, GatewayConfig, Manager};
use biot_core::{Account, Difficulty, FixedPolicy};
use biot_credit::CreditLedger;
use biot_gossip::node::{GossipConfig, GossipNode};
use biot_gossip::transport::VirtualClock;
use biot_net::time::SimTime;
use biot_node::api::{render_http, ApiState, HealthInfo};
use biot_node::http::Request;
use biot_node::role::{ArchivalNode, LightClient, Role, RoleConfig, ValidationNode};
use biot_node::EventLoop;
use biot_tangle::conflict::LazyTipPolicy;
use biot_tangle::graph::Tangle;
use biot_tangle::tx::{NodeId, Transaction, TxId};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use std::io::{Read, Write};

/// Knobs for one mixed-role fleet run.
#[derive(Clone, Debug, PartialEq)]
pub struct RolesConfig {
    /// Total fleet size, archival + validation + relays. Must be ≥ 4.
    pub nodes: usize,
    /// Target gossip degree.
    pub degree: usize,
    /// Oracle DAG transactions injected at relay nodes.
    pub txs: usize,
    /// Payload bytes per oracle transaction.
    pub payload_bytes: usize,
    /// Scheduled credit events injected at relay nodes.
    pub credit_events: usize,
    /// Light clients submitting through the validation gateway.
    pub light_clients: usize,
    /// Signed transactions each light client submits.
    pub light_txs_each: usize,
    /// Submissions per light client per instant. At 1 every submission
    /// has an instant of its own, 37 ms apart; above 1 every client
    /// submits this many at each instant, interleaved client by client,
    /// so one device gets several same-instant grants that are not
    /// adjacent in the gateway's credit log.
    pub light_batch: usize,
    /// Seed for topology, workload, and jitter.
    pub seed: u64,
}

impl Default for RolesConfig {
    fn default() -> Self {
        Self {
            nodes: 16,
            degree: 6,
            txs: 120,
            payload_bytes: 128,
            credit_events: 32,
            light_clients: 2,
            light_txs_each: 6,
            light_batch: 1,
            seed: 42,
        }
    }
}

/// What one mixed-role run produced.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct RolesOutcome {
    /// Fleet size.
    pub nodes: usize,
    /// Oracle DAG transactions.
    pub txs: usize,
    /// Light-client transactions admitted through the gateway.
    pub light_txs: usize,
    /// Credit events fleet-wide (schedule + gateway emissions).
    pub events_total: u64,
    /// Whether every node matched the oracle bit-for-bit in time.
    pub converged: bool,
    /// Virtual time of convergence (ms).
    pub converged_ms: u64,
    /// Event-loop wakeups: one per deadline the loop dispatched at.
    pub rounds: u64,
    /// Devices checked by the validation replay (0 until it runs).
    pub replay_devices: usize,
    /// Whether the replayed ledger matched the live one exactly.
    pub replay_ok: bool,
    /// HTTP requests probed against the archival endpoint.
    pub http_probes: usize,
    /// Probes whose socket bytes differed from the in-process oracle.
    pub http_mismatches: usize,
    /// Scheduling-independent digest of the converged archival node —
    /// sorted tips, cumulative weights in id order, per-device credit
    /// bit patterns at a fixed probe instant, hashes of the HTTP bytes
    /// for canonical requests, and the credit-event count. `run_roles`
    /// asserts it equals the oracle twin's (empty until convergence).
    pub fingerprint: Vec<String>,
}

/// A gateway configured for the validation role, booted with every light
/// client authorized: fixed minimum difficulty (light clients mine
/// `Difficulty::MIN`), lazy-tip policing off (light clients legitimately
/// build on old tips here), and both record switches on so admissions
/// reach the mesh. The auth list is mined and signed deterministically,
/// so two calls with the same manager and clients build identical
/// ledgers.
pub fn validation_gateway(manager: &mut Manager, lights: &[LightClient]) -> (Gateway, TxId) {
    Gateway::bootstrap(
        manager,
        Box::new(FixedPolicy(Difficulty::MIN)),
        GatewayConfig {
            lazy_policy: LazyTipPolicy {
                max_parent_age_ms: u64::MAX,
                max_parent_approvers: usize::MAX,
            },
            record_broadcasts: true,
            record_credit_events: true,
            ..GatewayConfig::default()
        },
        lights.iter().map(LightClient::public_key),
    )
}

fn gossip_config(cfg: &RolesConfig, index: usize) -> GossipConfig {
    GossipConfig {
        node_id: index as u64 + 1,
        listen_addr: Some(format!("roles:{}", index + 1)),
        fanout: 6,
        digest_ms: DIGEST_MS,
        anti_entropy_ms: ANTI_ENTROPY_MS,
        max_pending: cfg.txs + cfg.light_clients * cfg.light_txs_each + 64,
        seed: cfg.seed,
        ..GossipConfig::default()
    }
}

/// Requests the HTTP probe thread replays against the archival endpoint.
fn probe_requests(tangle: &Tangle, ledger: &CreditLedger, lights: &[LightClient]) -> Vec<Request> {
    let mut paths: Vec<(String, String)> = vec![
        ("/v1/health".into(), String::new()),
        ("/v1/stats".into(), String::new()),
        ("/v1/tips".into(), String::new()),
        ("/v1/credit".into(), String::new()),
        ("/v1/credit".into(), "at_ms=5000".into()),
        ("/v1/nope".into(), String::new()),
        ("/v1/tx/zz".into(), String::new()),
    ];
    let hex = |b: &[u8]| biot_crypto::sha256::to_hex(b);
    for tx in tangle.iter().take(3) {
        paths.push((format!("/v1/tx/{}", hex(tx.id().as_bytes())), String::new()));
        paths.push((format!("/v1/weight/{}", hex(tx.id().as_bytes())), String::new()));
    }
    for subject in ledger.known_nodes().take(2) {
        paths.push((format!("/v1/credit/{}", hex(subject.as_bytes())), String::new()));
    }
    for light in lights {
        paths.push((format!("/v1/credit/{}", hex(light.id().as_bytes())), String::new()));
    }
    paths
        .into_iter()
        .map(|(path, query)| Request { method: "GET".into(), path, query, keep_alive: false })
        .collect()
}

/// Runs one mixed-role fleet to convergence, then probes the archival
/// HTTP endpoint over real TCP and cross-checks the validation replay.
///
/// # Panics
///
/// If the converged archival node's [`RolesOutcome::fingerprint`]
/// differs from the oracle twin's.
pub fn run_roles(cfg: &RolesConfig) -> RolesOutcome {
    assert!(cfg.nodes >= 4, "need archival + validation + at least two relays");
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0x4013_ABCD);
    let mut manager = Manager::new(Account::generate(&mut rng));
    let genesis_issuer = node_id_of(manager.public_key());
    let mut workload = build_workload(
        cfg.seed ^ 0x0401_E5D0,
        cfg.txs,
        cfg.payload_bytes,
        cfg.credit_events,
        genesis_issuer,
        2..cfg.nodes,
    );

    // Light clients and their deterministic submission schedule:
    // `(client, tx, at_ms)`, all parented on genesis, mined to MIN, in
    // submission order.
    let lights: Vec<LightClient> =
        (0..cfg.light_clients).map(|_| LightClient::new(Account::generate(&mut rng))).collect();
    let (gateway, genesis) = validation_gateway(&mut manager, &lights);

    let mut submissions: Vec<(usize, Transaction, u64)> = Vec::new();
    for k in 0..cfg.light_txs_each {
        for (c, light) in lights.iter().enumerate() {
            let slot = match cfg.light_batch {
                0 | 1 => k * cfg.light_clients + c,
                b => k / b,
            };
            let at_ms = 500 + slot as u64 * 37;
            let tx = light
                .prepare(
                    vec![c as u8, k as u8],
                    (genesis, genesis),
                    SimTime::from_millis(at_ms),
                    Difficulty::MIN,
                )
                .tx;
            submissions.push((c, tx, at_ms));
        }
    }

    // Oracle twin: an identical gateway fed the identical submissions at
    // the identical instants, run to completion up front. Its broadcasts
    // and credit events, on top of the relay workload, *define* what the
    // fleet must converge to.
    let (mut twin, _) = validation_gateway(&mut manager, &lights);
    for (_, tx, at_ms) in &submissions {
        twin.submit(tx.clone(), SimTime::from_millis(*at_ms))
            .expect("scheduled light submission admits on the twin");
    }
    for tx in twin.take_broadcasts() {
        if !tx.is_genesis() {
            let at = tx.timestamp_ms;
            workload.tangle.attach(tx, at).expect("gateway broadcasts attach");
        }
    }
    let gateway_events = twin.take_credit_events();
    for ev in &gateway_events {
        workload.ledger.apply(ev);
    }
    let events_total = workload.events.len() as u64 + gateway_events.len() as u64;

    // The fleet: 0 = archival (HTTP on loopback), 1 = validation, 2.. =
    // relays, on the mesh harness's seeded jittered links.
    let archival = ArchivalNode::new(RoleConfig {
        role: Role::Archival,
        gossip: gossip_config(cfg, 0),
        http_addr: Some("127.0.0.1:0".into()),
        ..RoleConfig::default()
    })
    .expect("archival node boots");
    let validation = ValidationNode::new(
        gateway,
        RoleConfig { role: Role::Validation, gossip: gossip_config(cfg, 1), ..RoleConfig::default() },
    )
    .expect("validation node boots");
    let clock = VirtualClock::new();
    let mut el = EventLoop::with_clock(Box::new(clock.clone())).expect("event loop boots");
    let mut ids = vec![el.add_archival(archival), el.add_validation(validation)];
    for i in 2..cfg.nodes {
        ids.push(el.add_gossip(GossipNode::with_empty_tangle(gossip_config(cfg, i))));
    }
    let mut fleet = Fleet::wire(clock, el, ids, &workload, cfg.degree, cfg.seed);
    let (archival_id, validation_id) = (fleet.ids[0], fleet.ids[1]);

    let mut next_sub = 0usize;
    let mut now = 0u64;
    let mut out = RolesOutcome {
        nodes: cfg.nodes,
        txs: cfg.txs,
        light_txs: submissions.len(),
        events_total,
        ..RolesOutcome::default()
    };
    while now <= MAX_MS {
        fleet.inject(&workload, now);
        // Light submissions reach the live gateway at their scheduled
        // instants — the same instants the twin already saw.
        while next_sub < submissions.len() && submissions[next_sub].2 <= now {
            let (_, tx, at_ms) = &submissions[next_sub];
            fleet
                .el
                .validation_mut(validation_id)
                .expect("node 1 is the validation node")
                .gateway_mut()
                .submit(tx.clone(), SimTime::from_millis(*at_ms))
                .expect("scheduled light submission admits");
            next_sub += 1;
        }
        fleet.pump(now);
        if fleet.injected_all(&workload)
            && next_sub == submissions.len()
            && fleet.matches(&workload.tangle, &workload.ledger, events_total)
        {
            out.converged = true;
            out.converged_ms = now;
            break;
        }
        now += STEP_MS;
    }
    out.rounds = fleet.el.wakeups();
    if !out.converged {
        return out;
    }

    // Role claim 2: the validation node's replay must equal its live
    // ledger device-for-device, bit-for-bit.
    let validation = fleet.el.validation(validation_id).expect("node 1 is the validation node");
    if let Ok(devices) = validation.verify_replay(SimTime::from_millis(MAX_MS)) {
        out.replay_ok = true;
        out.replay_devices = devices;
    }

    // Taken before the probe phase adds any more wakeups.
    let archival = fleet.el.archival(archival_id).expect("node 0 is the archival node");
    out.fingerprint = {
        let tangle = archival.gossip().tangle().lock().expect("tangle lock poisoned");
        fingerprint(&tangle, archival.credits())
    };
    assert_eq!(
        out.fingerprint,
        fingerprint(&workload.tangle, &workload.ledger),
        "archival node diverged from the oracle twin"
    );

    // Role claim 3: every byte over the TCP socket equals the in-process
    // oracle rendering. The probe thread does blocking one-shot requests
    // while this thread keeps the loop turning at frozen virtual time.
    let probes = probe_requests(&workload.tangle, &workload.ledger, &lights);
    let addr = archival.http_addr().expect("http addr").expect("http enabled");
    let reqs = probes.clone();
    let worker = std::thread::spawn(move || -> Vec<Vec<u8>> {
        reqs.iter()
            .map(|req| {
                let target = if req.query.is_empty() {
                    req.path.clone()
                } else {
                    format!("{}?{}", req.path, req.query)
                };
                let mut stream = std::net::TcpStream::connect(addr).expect("probe connect");
                stream
                    .write_all(
                        format!("GET {target} HTTP/1.1\r\nConnection: close\r\n\r\n").as_bytes(),
                    )
                    .expect("probe write");
                let mut body = Vec::new();
                stream.read_to_end(&mut body).expect("probe read");
                body
            })
            .collect()
    });
    while !worker.is_finished() {
        fleet.el.turn().expect("event-loop turn during probes");
    }
    let answers = worker.join().expect("probe thread");
    let archival = fleet.el.archival(archival_id).expect("node 0 is the archival node");
    out.http_probes = probes.len();
    out.http_mismatches = probes
        .iter()
        .zip(&answers)
        .filter(|(req, got)| **got != archival.oracle_response(req))
        .count();
    out
}

/// A credit probe instant inside the 30 s ΔT window of every scheduled
/// grant (light submissions and relay events all fall before 3 s).
const IN_WINDOW_MS: u64 = 5_000;

/// Scheduling-independent digest of one replica's state: sorted tips,
/// cumulative weights in id order, per-device credit bit patterns at
/// [`IN_WINDOW_MS`] and [`MAX_MS`], SHA-256 of the rendered HTTP bytes for canonical weight
/// and credit requests, and the number of credit events folded.
/// Deliberately excludes anything scheduling-dependent — attach times,
/// `/v1/health`'s clock, gossip frame counters.
///
/// Credit is probed at [`IN_WINDOW_MS`], inside the ΔT window of every
/// scheduled grant, where a missing or merged validation event changes
/// CrP, and at [`MAX_MS`], where every validation record has left the
/// window and the breakdowns see only misbehaviour; the event count
/// catches a missing event either way.
fn fingerprint(tangle: &Tangle, ledger: &CreditLedger) -> Vec<String> {
    let hex = |b: &[u8]| biot_crypto::sha256::to_hex(b);
    // `Tangle::iter` walks a hash map — per-instance order. Sort so the
    // digest depends on state, never on iteration accidents.
    let mut ids: Vec<TxId> = tangle.iter().map(|tx| tx.id()).collect();
    ids.sort_unstable_by_key(|id| *id.as_bytes());
    let mut tips: Vec<String> = tangle.tips_iter().map(|id| hex(id.as_bytes())).collect();
    tips.sort_unstable();
    let mut fp = vec![format!("tips:{}", tips.join(","))];
    for id in &ids {
        fp.push(format!("w:{}:{}", hex(id.as_bytes()), tangle.cumulative_weight(id)));
    }
    let subjects: Vec<NodeId> = ledger.known_nodes().copied().collect();
    for at in [IN_WINDOW_MS, MAX_MS] {
        for nid in &subjects {
            let c = ledger.credit_of(*nid, SimTime::from_millis(at));
            fp.push(format!(
                "c:{at}:{}:{:016x}:{:016x}:{:016x}",
                hex(nid.as_bytes()),
                c.positive.to_bits(),
                c.negative.to_bits(),
                c.combined.to_bits(),
            ));
        }
    }
    let mut http_reqs: Vec<(String, String)> = ids
        .iter()
        .take(3)
        .map(|id| (format!("/v1/weight/{}", hex(id.as_bytes())), String::new()))
        .collect();
    for nid in &subjects {
        http_reqs.push((format!("/v1/credit/{}", hex(nid.as_bytes())), format!("at_ms={MAX_MS}")));
    }
    let health = HealthInfo::default();
    let state = ApiState { tangle, credits: ledger, health: &health };
    for (path, query) in http_reqs {
        let req = Request { method: "GET".into(), path: path.clone(), query, keep_alive: false };
        let bytes = render_http(&state, &req);
        fp.push(format!("h:{}:{}", path, hex(&biot_crypto::sha256::sha256(&bytes))));
    }
    fp.push(format!("e:{}", ledger.events_applied()));
    fp
}

#[cfg(test)]
mod tests {
    use super::*;
    use biot_credit::{CreditEvent, CreditParams};
    use biot_tangle::tx::{Payload, TransactionBuilder};

    fn small() -> RolesConfig {
        RolesConfig {
            nodes: 16,
            degree: 6,
            txs: 80,
            credit_events: 24,
            light_clients: 2,
            light_txs_each: 4,
            ..RolesConfig::default()
        }
    }

    #[test]
    fn mixed_role_fleet_converges_and_http_matches_oracle() {
        let out = run_roles(&small());
        assert!(out.converged, "mixed-role fleet must converge: {out:?}");
        assert!(out.replay_ok, "validation replay diverged: {out:?}");
        assert!(out.replay_devices >= 3, "manager + both lights have credit: {out:?}");
        assert_eq!(out.light_txs, 8);
        assert!(out.http_probes >= 10);
        assert_eq!(out.http_mismatches, 0, "socket bytes must equal oracle: {out:?}");
    }

    /// Several same-instant submissions per device, devices interleaved:
    /// every grant is its own event, relayed once by its `(origin, seq)`,
    /// so the archival replica holds the twin's credit bit for bit inside
    /// the ΔT window too.
    #[test]
    fn batched_same_instant_light_credit_matches_the_twin() {
        let out = run_roles(&RolesConfig {
            nodes: 8,
            degree: 4,
            txs: 30,
            credit_events: 10,
            light_clients: 3,
            light_txs_each: 6,
            light_batch: 3,
            ..RolesConfig::default()
        });
        assert!(out.converged, "batched fleet must converge: {out:?}");
        assert!(out.replay_ok, "validation replay diverged: {out:?}");
        assert_eq!(out.http_mismatches, 0);
    }

    #[test]
    fn seeded_mixed_role_runs_are_identical() {
        let a = run_roles(&small());
        let b = run_roles(&small());
        assert_eq!(a, b, "same seed, same mixed fleet, same report");
    }

    #[test]
    fn archival_fingerprint_matches_oracle_twin_within_wakeup_bound() {
        // `run_roles` panics if the archival fingerprint differs from
        // the twin's.
        let out = run_roles(&small());
        assert!(out.converged, "fleet must converge: {out:?}");
        assert!(out.replay_ok, "validation replay diverged");
        assert_eq!(out.http_mismatches, 0, "socket bytes must equal oracle");
        assert!(!out.fingerprint.is_empty());
        let steps = out.converged_ms / STEP_MS + 1;
        assert!(
            out.rounds < 4 * steps,
            "deadline-hopping must not explode the wake count: {} wakeups over {steps} steps",
            out.rounds
        );
    }

    #[test]
    fn fingerprint_sees_one_dropped_event_and_one_extra_transaction() {
        let w = build_workload(7, 20, 8, 12, NodeId([9; 32]), 2..8);
        let base = fingerprint(&w.tangle, &w.ledger);
        assert_eq!(base, fingerprint(&w.tangle.clone(), &w.ledger), "a digest of state alone");

        // Drop a validation event whose subject keeps other events, so
        // the subject stays known: CrP at the in-window probe and the
        // event count both see the gap.
        let dropped = w
            .events
            .iter()
            .position(|(ev, _, _)| {
                matches!(ev, CreditEvent::Validated { .. })
                    && w.events.iter().filter(|(o, _, _)| o.node() == ev.node()).count() > 1
            })
            .expect("some subject has a validation event and another event");
        let mut short = CreditLedger::new(CreditParams::default());
        for (k, (ev, _, _)) in w.events.iter().enumerate() {
            if k != dropped {
                short.apply(ev);
            }
        }
        assert_ne!(fingerprint(&w.tangle, &short), base, "a dropped credit event must show");

        let mut grown = w.tangle.clone();
        let tip = grown.tips()[0];
        let extra = TransactionBuilder::new(NodeId([7; 32]))
            .parents(tip, tip)
            .payload(Payload::Data(vec![1, 2, 3]))
            .timestamp_ms(10_000)
            .build();
        grown.attach(extra, 10_000).expect("parents present");
        assert_ne!(fingerprint(&grown, &w.ledger), base, "an extra transaction must show");
    }
}
