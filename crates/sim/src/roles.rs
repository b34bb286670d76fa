//! Mixed-role fleet runner: the tentpole proof for the role runtimes.
//!
//! Where [`crate::mesh`] stands up a fleet of identical gossip nodes,
//! this module wires a *heterogeneous* fleet the way the paper's network
//! actually looks:
//!
//! * node 0 is an [`ArchivalNode`] — syncs the mesh, folds credit
//!   events, optionally persists to a `biot-store` directory, and serves
//!   the HTTP/1.1 query API on a real loopback socket;
//! * node 1 is a [`ValidationNode`] — wraps a full [`Gateway`]
//!   (authorization, signatures, credit bookkeeping), admits
//!   [`LightClient`] submissions, pushes the resulting transactions and
//!   credit events onto the mesh, and retains the event log for the
//!   replay cross-check;
//! * the rest are plain relays carrying the oracle workload, exactly as
//!   in the mesh runner.
//!
//! The run passes only if **all three role claims hold at once**:
//!
//! 1. every node — relays, the archival tangle, *and* the validation
//!    gateway's internal tangle — converges to the oracle bit-for-bit
//!    (tips, cumulative weights, credit breakdowns);
//! 2. the validation node's from-scratch event-log replay matches its
//!    live ledger exactly ([`ValidationNode::verify_replay`]);
//! 3. every byte the archival node's HTTP endpoint sends over TCP is
//!    identical to the in-process oracle rendering
//!    ([`ArchivalNode::oracle_response`]) for the same request.

use crate::mesh::seeded_edges;
use biot_core::identity::node_id_of;
use biot_core::node::{Gateway, GatewayConfig, Manager};
use biot_core::{Account, Difficulty, FixedPolicy};
use biot_credit::{CreditEvent, CreditLedger, CreditParams, Misbehavior};
use biot_gossip::node::{GossipConfig, GossipNode};
use biot_gossip::transport::{
    ByteCounter, CountingTransport, FnConnector, JitterTransport, MemTransport, Transport,
    VirtualClock,
};
use biot_net::latency::UniformLatency;
use biot_net::time::SimTime;
use biot_node::http::Request;
use biot_node::role::{ArchivalNode, LightClient, Role, RoleConfig, ValidationNode};
use biot_node::{EventLoop, MemberId, QueryConfig};
use biot_tangle::conflict::LazyTipPolicy;
use biot_tangle::graph::Tangle;
use biot_tangle::tx::{NodeId, Payload, Transaction, TransactionBuilder, TxId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::io::{Read, Write};
use std::path::PathBuf;
use std::sync::{Arc, Mutex};

/// Which runtime drives the fleet through virtual time.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum RolesDriver {
    /// The legacy fixed-step loop: poll every node every `step_ms`.
    /// Kept as the behavioral oracle the event loop is checked against.
    #[default]
    TickLoop,
    /// The blocking reactor ([`biot_node::EventLoop`]) on a virtual
    /// clock that jumps deadline-to-deadline instead of sleeping.
    EventLoop,
}

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
    /// Seed for topology, workload, and jitter.
    pub seed: u64,
    /// Gossip digest interval (ms).
    pub digest_ms: u64,
    /// Gossip anti-entropy interval (ms).
    pub anti_entropy_ms: u64,
    /// Link latency bounds (ms).
    pub jitter_ms: (u64, u64),
    /// Oracle transaction cadence (ms).
    pub tx_interval_ms: u64,
    /// Virtual-time step per poll round (ms).
    pub step_ms: u64,
    /// Give-up horizon (virtual ms).
    pub max_ms: u64,
    /// Archival store directory (`None` = memory only).
    pub store_dir: Option<PathBuf>,
    /// Which runtime drives the fleet (see [`RolesDriver`]).
    pub driver: RolesDriver,
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
            seed: 42,
            digest_ms: 25,
            anti_entropy_ms: 2_000,
            jitter_ms: (5, 30),
            tx_interval_ms: 20,
            step_ms: 25,
            max_ms: 600_000,
            store_dir: None,
            driver: RolesDriver::default(),
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
    /// Poll rounds executed.
    pub rounds: u64,
    /// Devices checked by the validation replay (0 until it runs).
    pub replay_devices: usize,
    /// Whether the replayed ledger matched the live one exactly.
    pub replay_ok: bool,
    /// HTTP requests probed against the archival endpoint.
    pub http_probes: usize,
    /// Probes whose socket bytes differed from the in-process oracle.
    pub http_mismatches: usize,
    /// Driver-invariant digest of the converged fleet — sorted tips,
    /// cumulative weights in oracle order, per-device credit bit
    /// patterns at a fixed probe instant, and hashes of the archival
    /// endpoint's rendered bytes for canonical requests. Two runs of
    /// the same config under *different* drivers must agree on every
    /// entry (empty until convergence).
    pub fingerprint: Vec<String>,
}

/// The relay-side oracle workload (mirrors the mesh runner's).
struct Workload {
    tangle: Tangle,
    ledger: CreditLedger,
    txs: Vec<(Transaction, u64, usize)>,
    events: Vec<(CreditEvent, u64, usize)>,
}

/// Builds the relay workload: a seeded DAG plus a credit-event schedule,
/// each item surfacing at a seeded relay node (indices ≥ 2).
fn build_workload(cfg: &RolesConfig, genesis_issuer: NodeId) -> Workload {
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0x0401_E5D0);
    let mut tangle = Tangle::new();
    let genesis = tangle.attach_genesis(genesis_issuer, 0);
    let mut ids = vec![genesis];
    let mut txs = Vec::with_capacity(cfg.txs);
    for k in 0..cfg.txs {
        let attach_ms = (k as u64 + 1) * cfg.tx_interval_ms;
        let window = ids.len().min(24);
        let trunk = ids[ids.len() - 1 - rng.gen_range(0..window)];
        let branch = ids[ids.len() - 1 - rng.gen_range(0..window)];
        let mut issuer = [0u8; 32];
        issuer[0] = (k % 249) as u8 + 1;
        issuer[1] = (k / 249) as u8;
        let mut payload = (k as u32).to_be_bytes().to_vec();
        payload.resize(cfg.payload_bytes.max(4), (k % 251) as u8);
        let tx = TransactionBuilder::new(NodeId(issuer))
            .parents(trunk, branch)
            .payload(Payload::Data(payload))
            .timestamp_ms(attach_ms)
            .build();
        let id = tangle.attach(tx.clone(), attach_ms).expect("oracle parents present");
        ids.push(id);
        let origin = rng.gen_range(2..cfg.nodes);
        txs.push((tx, attach_ms, origin));
    }
    // Whole-number weights and unique per-subject timestamps keep the
    // ledger fold order-independent across gossip reorderings.
    let mut ledger = CreditLedger::new(CreditParams::default());
    let mut events = Vec::with_capacity(cfg.credit_events);
    let span = cfg.txs as u64 * cfg.tx_interval_ms;
    for e in 0..cfg.credit_events {
        let subject = NodeId([(e % 7) as u8 + 1; 32]);
        let weight = f64::from(rng.gen_range(1..=3u32));
        let at = SimTime::from_millis(1_000 + e as u64 * 13);
        let ev = if rng.gen_range(0..5u32) == 0 {
            let kind =
                if rng.gen_bool(0.5) { Misbehavior::LazyTips } else { Misbehavior::DoubleSpend };
            CreditEvent::misbehaved(subject, kind, at)
        } else {
            CreditEvent::validated(subject, weight, at)
        };
        ledger.apply(&ev);
        let emit_ms = rng.gen_range(0..=span.max(1));
        let origin = rng.gen_range(2..cfg.nodes);
        events.push((ev, emit_ms, origin));
    }
    events.sort_by_key(|&(_, at, _)| at);
    Workload { tangle, ledger, txs, events }
}

/// A gateway configured for the validation role: fixed minimum
/// difficulty (light clients mine `Difficulty::MIN`), lazy-tip policing
/// off (light clients legitimately build on old tips here), and both
/// record switches on so admissions reach the mesh.
fn validation_gateway(manager_pk: biot_crypto::rsa::RsaPublicKey) -> Gateway {
    Gateway::new(
        manager_pk,
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
    )
}

fn gossip_config(cfg: &RolesConfig, index: usize) -> GossipConfig {
    GossipConfig {
        node_id: index as u64 + 1,
        listen_addr: Some(format!("roles:{}", index + 1)),
        fanout: 6,
        digest_ms: cfg.digest_ms,
        anti_entropy_ms: cfg.anti_entropy_ms,
        max_pending: cfg.txs + cfg.light_clients * cfg.light_txs_each + 64,
        seed: cfg.seed,
        ..GossipConfig::default()
    }
}

enum FleetNode {
    Archival(Box<ArchivalNode>),
    Validation(Box<ValidationNode>),
    Relay(Box<GossipNode>),
}

impl FleetNode {
    fn gossip_mut(&mut self) -> &mut GossipNode {
        match self {
            FleetNode::Archival(n) => n.gossip_mut(),
            FleetNode::Validation(n) => n.gossip_mut(),
            FleetNode::Relay(n) => n,
        }
    }

    fn gossip(&self) -> &GossipNode {
        match self {
            FleetNode::Archival(n) => n.gossip(),
            FleetNode::Validation(n) => n.gossip(),
            FleetNode::Relay(n) => n,
        }
    }
}

/// Far ends of freshly dialed links, grouped by accepting node index.
type AcceptQueues = Arc<Mutex<Vec<Vec<Box<dyn Transport>>>>>;

/// Uniform read view over one fleet member, whichever driver holds it.
struct FleetView<'a> {
    gossip: &'a GossipNode,
    ledger: &'a CreditLedger,
    /// The validation gateway's internal tangle, when the member has
    /// one — it must match the oracle too.
    gateway_tangle: Option<&'a Tangle>,
}

/// The fleet under whichever runtime [`RolesConfig::driver`] picked.
/// Every scripted injection and every convergence check goes through
/// this, so both drivers run literally the same schedule.
enum Driven {
    Tick { nodes: Vec<FleetNode>, ledgers: Vec<CreditLedger> },
    Event { el: EventLoop, ids: Vec<MemberId> },
}

impl Driven {
    fn len(&self) -> usize {
        match self {
            Driven::Tick { nodes, .. } => nodes.len(),
            Driven::Event { ids, .. } => ids.len(),
        }
    }

    fn gossip(&self, i: usize) -> &GossipNode {
        match self {
            Driven::Tick { nodes, .. } => nodes[i].gossip(),
            Driven::Event { el, ids } => el.gossip(ids[i]).expect("member exists"),
        }
    }

    fn gossip_mut(&mut self, i: usize) -> &mut GossipNode {
        match self {
            Driven::Tick { nodes, .. } => nodes[i].gossip_mut(),
            Driven::Event { el, ids } => el.gossip_mut(ids[i]).expect("member exists"),
        }
    }

    /// Folds a locally injected credit event into relay `i`'s own
    /// projection (broadcasts do not loop back to their origin).
    fn apply_local_event(&mut self, i: usize, ev: &CreditEvent) {
        match self {
            Driven::Tick { ledgers, .. } => ledgers[i].apply(ev),
            Driven::Event { el, ids } => {
                el.ledger_mut(ids[i]).expect("relay member holds a ledger").apply(ev);
            }
        }
    }

    fn validation_mut(&mut self) -> &mut ValidationNode {
        match self {
            Driven::Tick { nodes, .. } => match &mut nodes[1] {
                FleetNode::Validation(v) => v,
                _ => unreachable!("node 1 is the validation node"),
            },
            Driven::Event { el, ids } => {
                el.validation_mut(ids[1]).expect("node 1 is the validation node")
            }
        }
    }

    fn validation(&self) -> &ValidationNode {
        match self {
            Driven::Tick { nodes, .. } => match &nodes[1] {
                FleetNode::Validation(v) => v,
                _ => unreachable!("node 1 is the validation node"),
            },
            Driven::Event { el, ids } => {
                el.validation(ids[1]).expect("node 1 is the validation node")
            }
        }
    }

    fn archival(&self) -> &ArchivalNode {
        match self {
            Driven::Tick { nodes, .. } => match &nodes[0] {
                FleetNode::Archival(a) => a,
                _ => unreachable!("node 0 is the archival node"),
            },
            Driven::Event { el, ids } => {
                el.archival(ids[0]).expect("node 0 is the archival node")
            }
        }
    }

    fn archival_mut(&mut self) -> &mut ArchivalNode {
        match self {
            Driven::Tick { nodes, .. } => match &mut nodes[0] {
                FleetNode::Archival(a) => a,
                _ => unreachable!("node 0 is the archival node"),
            },
            Driven::Event { el, ids } => {
                el.archival_mut(ids[0]).expect("node 0 is the archival node")
            }
        }
    }

    /// One round of virtual time `now`: the tick driver polls every
    /// member once; the event driver pumps every deadline due by `now`,
    /// each wake dispatching the same handler sequence one tick would.
    fn step(&mut self, now: u64) {
        match self {
            Driven::Tick { nodes, ledgers } => {
                for (node, ledger) in nodes.iter_mut().zip(ledgers.iter_mut()) {
                    match node {
                        FleetNode::Archival(n) => {
                            n.poll(now).expect("archival poll");
                        }
                        FleetNode::Validation(n) => {
                            n.poll(now).expect("validation poll");
                        }
                        FleetNode::Relay(n) => {
                            n.poll(now);
                            for ev in n.take_credit_events() {
                                ledger.apply(&ev);
                            }
                        }
                    }
                }
            }
            Driven::Event { el, .. } => el.pump(now).expect("event-loop pump"),
        }
    }

    /// One iteration of the HTTP probe phase: keep the archival reactor
    /// (tick) or the whole loop (event) serviced at frozen virtual time.
    fn probe_step(&mut self, now: u64) {
        match self {
            Driven::Tick { nodes, .. } => {
                if let FleetNode::Archival(a) = &mut nodes[0] {
                    a.poll(now).expect("archival poll during probes");
                }
            }
            Driven::Event { el, .. } => el.turn().expect("event-loop turn during probes"),
        }
    }

    fn view(&self, i: usize) -> FleetView<'_> {
        match self {
            Driven::Tick { nodes, ledgers } => match &nodes[i] {
                FleetNode::Archival(n) => FleetView {
                    gossip: n.gossip(),
                    ledger: n.credits(),
                    gateway_tangle: None,
                },
                FleetNode::Validation(n) => FleetView {
                    gossip: n.gossip(),
                    ledger: n.gateway().credits(),
                    gateway_tangle: Some(n.gateway().tangle()),
                },
                FleetNode::Relay(n) => {
                    FleetView { gossip: n, ledger: &ledgers[i], gateway_tangle: None }
                }
            },
            Driven::Event { el, ids } => {
                let id = ids[i];
                if let Some(n) = el.archival(id) {
                    FleetView { gossip: n.gossip(), ledger: n.credits(), gateway_tangle: None }
                } else if let Some(n) = el.validation(id) {
                    FleetView {
                        gossip: n.gossip(),
                        ledger: n.gateway().credits(),
                        gateway_tangle: Some(n.gateway().tangle()),
                    }
                } else {
                    FleetView {
                        gossip: el.gossip(id).expect("member exists"),
                        ledger: el.ledger(id).expect("relay member holds a ledger"),
                        gateway_tangle: None,
                    }
                }
            }
        }
    }
}

/// Requests the HTTP probe thread replays against the archival endpoint.
fn probe_requests(workload: &Workload, lights: &[LightClient]) -> Vec<Request> {
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
    for tx in workload.tangle.iter().take(3) {
        paths.push((format!("/v1/tx/{}", hex(tx.id().as_bytes())), String::new()));
        paths.push((format!("/v1/weight/{}", hex(tx.id().as_bytes())), String::new()));
    }
    for subject in workload.ledger.known_nodes().take(2) {
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
pub fn run_roles(cfg: &RolesConfig) -> RolesOutcome {
    assert!(cfg.nodes >= 4, "need archival + validation + at least two relays");
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0x4013_ABCD);
    let mut manager = Manager::new(Account::generate(&mut rng));
    let genesis_issuer = node_id_of(manager.public_key());
    let workload = build_workload(cfg, genesis_issuer);

    // Light clients and their deterministic submission schedule:
    // `(client, tx, at_ms)`, all parented on genesis, mined to MIN.
    let lights: Vec<LightClient> =
        (0..cfg.light_clients).map(|_| LightClient::new(Account::generate(&mut rng))).collect();
    let mut gateway = validation_gateway(manager.public_key().clone());
    let genesis = gateway.init_genesis(SimTime::ZERO);
    for light in &lights {
        let device = manager.register_device(light.public_key().clone());
        manager.authorize(device);
        gateway.register_pubkey(light.public_key().clone());
    }
    let d0 = gateway.difficulty_for(manager.id(), SimTime::ZERO);
    let auth = manager.prepare_auth_list((genesis, genesis), SimTime::ZERO, d0);
    gateway.apply_auth_list(auth.tx.clone(), SimTime::ZERO).expect("auth list admits");

    let mut submissions: Vec<(usize, Transaction, u64)> = Vec::new();
    for k in 0..cfg.light_txs_each {
        for (c, light) in lights.iter().enumerate() {
            let at_ms = 500 + (k * cfg.light_clients + c) as u64 * 37;
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

    // Oracle gateway: an identical twin fed the identical submissions at
    // the identical instants, run to completion up front. Its broadcasts
    // and credit events *define* what the fleet must converge to.
    let mut oracle_tangle = workload.tangle;
    let mut oracle_ledger = workload.ledger;
    let mut oracle_gateway = validation_gateway(manager.public_key().clone());
    oracle_gateway.init_genesis(SimTime::ZERO);
    for light in &lights {
        oracle_gateway.register_pubkey(light.public_key().clone());
    }
    oracle_gateway
        .apply_auth_list(auth.tx.clone(), SimTime::ZERO)
        .expect("auth list admits on the twin");
    for (_, tx, at_ms) in &submissions {
        oracle_gateway
            .submit(tx.clone(), SimTime::from_millis(*at_ms))
            .expect("scheduled light submission admits on the twin");
    }
    for tx in oracle_gateway.take_broadcasts() {
        if !tx.is_genesis() {
            let at = tx.timestamp_ms;
            oracle_tangle.attach(tx, at).expect("gateway broadcasts attach");
        }
    }
    let gateway_events = oracle_gateway.take_credit_events();
    for ev in &gateway_events {
        oracle_ledger.apply(ev);
    }
    let events_total = workload.events.len() as u64 + gateway_events.len() as u64;

    // The fleet: 0 = archival (HTTP on loopback), 1 = validation, 2.. =
    // relays, wired over seeded jittered in-memory links.
    let clock = VirtualClock::new();
    let accept: AcceptQueues = Arc::new(Mutex::new((0..cfg.nodes).map(|_| Vec::new()).collect()));
    let mut nodes: Vec<FleetNode> = Vec::with_capacity(cfg.nodes);
    let archival = ArchivalNode::new(RoleConfig {
        role: Role::Archival,
        gossip: gossip_config(cfg, 0),
        store_dir: cfg.store_dir.clone(),
        http_addr: Some("127.0.0.1:0".into()),
        http: QueryConfig::default(),
        ..RoleConfig::default()
    })
    .expect("archival node boots");
    nodes.push(FleetNode::Archival(Box::new(archival)));
    let validation = ValidationNode::new(
        gateway,
        RoleConfig { role: Role::Validation, gossip: gossip_config(cfg, 1), ..RoleConfig::default() },
    )
    .expect("validation node boots");
    nodes.push(FleetNode::Validation(Box::new(validation)));
    for i in 2..cfg.nodes {
        nodes.push(FleetNode::Relay(Box::new(GossipNode::with_empty_tangle(gossip_config(
            cfg, i,
        )))));
    }
    for node in nodes.iter_mut() {
        node.gossip_mut().tangle().lock().unwrap().attach_genesis(genesis_issuer, 0);
    }
    let ledgers: Vec<CreditLedger> =
        (0..cfg.nodes).map(|_| CreditLedger::new(CreditParams::default())).collect();

    for (i, j) in seeded_edges(cfg.nodes, cfg.degree, cfg.seed) {
        let accept = Arc::clone(&accept);
        let clock_i = clock.clone();
        let model = UniformLatency::new(cfg.jitter_ms.0, cfg.jitter_ms.1);
        let (seed_i, seed_j) = (
            cfg.seed ^ (i as u64) << 20 ^ (j as u64) << 4 ^ 1,
            cfg.seed ^ (i as u64) << 20 ^ (j as u64) << 4 ^ 2,
        );
        let counter = ByteCounter::new();
        let counter_far = ByteCounter::new();
        nodes[i].gossip_mut().connect(Box::new(FnConnector(move || {
            let (a, b, _link) = MemTransport::pair();
            let far: Box<dyn Transport> = Box::new(CountingTransport::new(
                Box::new(JitterTransport::new(
                    Box::new(b),
                    Box::new(model),
                    seed_j,
                    clock_i.clone(),
                )),
                counter_far.clone(),
            ));
            accept.lock().unwrap()[j].push(far);
            Ok(Box::new(CountingTransport::new(
                Box::new(JitterTransport::new(
                    Box::new(a),
                    Box::new(model),
                    seed_i,
                    clock_i.clone(),
                )),
                counter.clone(),
            )) as Box<dyn Transport>)
        })));
    }

    // Hand the built fleet to the configured driver. Identical members,
    // identical wiring — only the engine advancing them differs.
    let mut driven = match cfg.driver {
        RolesDriver::TickLoop => Driven::Tick { nodes, ledgers },
        RolesDriver::EventLoop => {
            let mut el = EventLoop::with_clock(Box::new(clock.clone()))
                .expect("event loop boots");
            let mut ids = Vec::with_capacity(nodes.len());
            for node in nodes {
                ids.push(match node {
                    FleetNode::Archival(n) => el.add_archival(*n),
                    FleetNode::Validation(n) => el.add_validation(*n),
                    FleetNode::Relay(n) => el.add_gossip(*n),
                });
            }
            drop(ledgers); // event members carry their own projections
            Driven::Event { el, ids }
        }
    };

    let mut injected = vec![false; workload.txs.len()];
    let mut next_tx = 0usize;
    let mut next_ev = 0usize;
    let mut next_sub = 0usize;
    let mut now = 0u64;
    let mut loop_rounds = 0u64;
    let mut out = RolesOutcome {
        nodes: cfg.nodes,
        txs: cfg.txs,
        light_txs: submissions.len(),
        events_total,
        ..RolesOutcome::default()
    };

    while now <= cfg.max_ms {
        clock.set(now);
        // Oracle DAG transactions surface at relays once their origin has
        // synced the pre-decided parents (issuance follows sync).
        #[allow(clippy::needless_range_loop)] // `k` also indexes `injected`
        for k in next_tx..workload.txs.len() {
            let (tx, attach_ms, origin) = &workload.txs[k];
            if *attach_ms > now {
                break;
            }
            if injected[k] {
                continue;
            }
            let parents_known = {
                let t = driven.gossip(*origin).tangle().lock().unwrap();
                tx.parents().into_iter().all(|p| t.contains(&p))
            };
            if parents_known {
                driven.gossip_mut(*origin).submit(tx.clone(), *attach_ms, now);
                injected[k] = true;
            }
        }
        while next_tx < workload.txs.len() && injected[next_tx] {
            next_tx += 1;
        }
        while next_ev < workload.events.len() && workload.events[next_ev].1 <= now {
            let (ev, _, origin) = &workload.events[next_ev];
            driven.apply_local_event(*origin, ev);
            driven.gossip_mut(*origin).broadcast_credit_events(&[*ev], now);
            next_ev += 1;
        }
        // Light submissions reach the live gateway at their scheduled
        // instants — the same instants the oracle twin already saw.
        while next_sub < submissions.len() && submissions[next_sub].2 <= now {
            let (_, tx, at_ms) = &submissions[next_sub];
            driven
                .validation_mut()
                .gateway_mut()
                .submit(tx.clone(), SimTime::from_millis(*at_ms))
                .expect("scheduled light submission admits");
            next_sub += 1;
        }
        {
            let mut accept = accept.lock().unwrap();
            for (j, inbox) in accept.iter_mut().enumerate() {
                for t in inbox.drain(..) {
                    driven.gossip_mut(j).add_transport(t, now);
                }
            }
        }
        driven.step(now);
        loop_rounds += 1;

        let workload_done = next_tx == workload.txs.len()
            && next_ev == workload.events.len()
            && next_sub == submissions.len();
        if workload_done
            && fleet_matches_oracle(&driven, &oracle_tangle, &oracle_ledger, events_total, cfg.max_ms)
        {
            out.converged = true;
            out.converged_ms = now;
            break;
        }
        now += cfg.step_ms.max(1);
    }
    out.rounds = match &driven {
        Driven::Tick { .. } => loop_rounds,
        Driven::Event { el, .. } => el.wakeups(),
    };

    if !out.converged {
        return out;
    }

    // Role claim 2: the validation node's replay must equal its live
    // ledger device-for-device, bit-for-bit.
    match driven.validation().verify_replay(SimTime::from_millis(cfg.max_ms)) {
        Ok(devices) => {
            out.replay_ok = true;
            out.replay_devices = devices;
        }
        Err(_) => out.replay_ok = false,
    }

    // The cross-driver digest, taken before the probe phase adds any
    // more polls: same seed under tick loop and event loop must agree
    // on every entry.
    out.fingerprint =
        fleet_fingerprint(driven.archival(), &oracle_tangle, &oracle_ledger, cfg.max_ms);

    // Role claim 3: every byte over the TCP socket equals the in-process
    // oracle rendering. The probe thread does blocking one-shot requests
    // while this thread keeps the reactor polled at frozen virtual time.
    let probes = probe_requests(
        &Workload { tangle: oracle_tangle, ledger: oracle_ledger, txs: vec![], events: vec![] },
        &lights,
    );
    {
        let addr =
            driven.archival().http_addr().expect("http addr").expect("http enabled");
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
                            format!("GET {target} HTTP/1.1\r\nConnection: close\r\n\r\n")
                                .as_bytes(),
                        )
                        .expect("probe write");
                    let mut body = Vec::new();
                    stream.read_to_end(&mut body).expect("probe read");
                    body
                })
                .collect()
        });
        while !worker.is_finished() {
            driven.probe_step(now);
        }
        let answers = worker.join().expect("probe thread");
        out.http_probes = probes.len();
        for (req, got) in probes.iter().zip(answers.iter()) {
            if *got != driven.archival().oracle_response(req) {
                out.http_mismatches += 1;
            }
        }
    }
    driven.archival_mut().checkpoint().expect("archival checkpoint");
    out
}

/// Driver-invariant digest of the converged fleet, read off the archival
/// node (every other member already matched the oracle bit-for-bit by
/// the time this runs): sorted tips, cumulative weights in oracle order,
/// per-device credit bit patterns at the fixed probe instant, and SHA-256
/// hashes of the archival endpoint's rendered bytes for canonical
/// requests. Deliberately excludes anything scheduling-dependent —
/// attach times, `/v1/health`'s clock, gossip frame counters.
fn fleet_fingerprint(
    archival: &ArchivalNode,
    oracle_tangle: &Tangle,
    oracle_ledger: &CreditLedger,
    probe_ms: u64,
) -> Vec<String> {
    let hex = |b: &[u8]| biot_crypto::sha256::to_hex(b);
    // `Tangle::iter` walks a hash map — per-instance order. Sort so the
    // digest depends on fleet *state*, never on iteration accidents.
    let mut oracle_ids: Vec<TxId> = oracle_tangle.iter().map(|tx| tx.id()).collect();
    oracle_ids.sort_unstable_by_key(|id| *id.as_bytes());
    let mut fp = Vec::new();
    {
        let t = archival.gossip().tangle().lock().unwrap();
        let mut tips: Vec<String> =
            t.tips_iter().map(|id| hex(id.as_bytes())).collect();
        tips.sort_unstable();
        fp.push(format!("tips:{}", tips.join(",")));
        for id in &oracle_ids {
            fp.push(format!("w:{}:{}", hex(id.as_bytes()), t.cumulative_weight(id)));
        }
    }
    let probe = SimTime::from_millis(probe_ms);
    let mut subjects: Vec<NodeId> = oracle_ledger.known_nodes().copied().collect();
    subjects.sort_unstable_by_key(|n| n.0);
    for nid in &subjects {
        let c = archival.credits().credit_of(*nid, probe);
        fp.push(format!(
            "c:{}:{:016x}:{:016x}:{:016x}",
            hex(nid.as_bytes()),
            c.positive.to_bits(),
            c.negative.to_bits(),
            c.combined.to_bits(),
        ));
    }
    let mut http_reqs: Vec<(String, String)> = oracle_ids
        .iter()
        .take(3)
        .map(|id| (format!("/v1/weight/{}", hex(id.as_bytes())), String::new()))
        .collect();
    for nid in &subjects {
        http_reqs
            .push((format!("/v1/credit/{}", hex(nid.as_bytes())), format!("at_ms={probe_ms}")));
    }
    for (path, query) in http_reqs {
        let req = Request { method: "GET".into(), path: path.clone(), query, keep_alive: false };
        let bytes = archival.oracle_response(&req);
        fp.push(format!("h:{}:{}", path, hex(&biot_crypto::sha256::sha256(&bytes))));
    }
    fp
}

/// Bit-for-bit check across the mixed fleet: every gossip tangle (and
/// the validation gateway's internal one) equals the oracle; every
/// ledger knows every event and agrees on every breakdown.
fn fleet_matches_oracle(
    driven: &Driven,
    oracle_tangle: &Tangle,
    oracle_ledger: &CreditLedger,
    events_total: u64,
    probe_ms: u64,
) -> bool {
    let want_len = oracle_tangle.len();
    let want_tips = oracle_tangle.tips();
    let oracle_ids: Vec<TxId> = oracle_tangle.iter().map(|tx| tx.id()).collect();
    let probe = SimTime::from_millis(probe_ms);
    let subjects: Vec<NodeId> = oracle_ledger.known_nodes().copied().collect();
    let ledger_matches = |ledger: &CreditLedger| {
        ledger.events_applied() == events_total
            && subjects.iter().all(|&nid| {
                let a = oracle_ledger.credit_of(nid, probe);
                let b = ledger.credit_of(nid, probe);
                a.positive == b.positive && a.negative == b.negative && a.combined == b.combined
            })
    };
    let tangle_matches = |t: &Tangle| {
        t.len() == want_len
            && t.tips() == want_tips
            && oracle_ids
                .iter()
                .all(|id| t.cumulative_weight(id) == oracle_tangle.cumulative_weight(id))
    };
    for i in 0..driven.len() {
        let view = driven.view(i);
        if view.gossip.pending_len() != 0 {
            return false;
        }
        if !tangle_matches(&view.gossip.tangle().lock().unwrap()) {
            return false;
        }
        if !ledger_matches(view.ledger) {
            return false;
        }
        // The validation gateway's *internal* tangle must match too —
        // the mirror is the validation role's whole job.
        if let Some(gateway_tangle) = view.gateway_tangle {
            if !tangle_matches(gateway_tangle) {
                return false;
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

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

    #[test]
    fn seeded_mixed_role_runs_are_identical() {
        let a = run_roles(&small());
        let b = run_roles(&small());
        assert_eq!(a, b, "same seed, same mixed fleet, same report");
    }

    #[test]
    fn event_loop_driver_matches_tick_loop_bit_for_bit() {
        let tick = run_roles(&small());
        let event = run_roles(&RolesConfig { driver: RolesDriver::EventLoop, ..small() });
        assert!(tick.converged, "tick-loop fleet must converge: {tick:?}");
        assert!(event.converged, "event-loop fleet must converge: {event:?}");
        assert!(event.replay_ok, "event-loop replay diverged");
        assert_eq!(event.http_mismatches, 0, "event-loop socket bytes must equal oracle");
        assert!(!tick.fingerprint.is_empty());
        assert_eq!(
            tick.fingerprint, event.fingerprint,
            "tick loop and event loop must produce bit-identical fleets"
        );
        assert!(
            event.rounds < tick.rounds * 4,
            "deadline-hopping must not explode the wake count: {} vs {} ticks",
            event.rounds,
            tick.rounds
        );
    }
}
