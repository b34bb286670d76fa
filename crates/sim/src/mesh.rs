//! N-node gossip mesh fleet runner.
//!
//! Stands up a whole fleet of [`GossipNode`]s on seeded in-memory links
//! (jittered, byte-counted), wires them into a random bounded-degree
//! topology, injects a pre-generated oracle workload — a DAG of
//! transactions plus a credit-event schedule, each item surfacing at a
//! seeded origin node — and then polls the fleet on a shared virtual
//! clock until every node has converged to the oracle **bit-for-bit**:
//! identical tip sets, identical cumulative weights for every
//! transaction, and an identical `(CrP, CrN, Cr)` breakdown for every
//! node the credit ledger knows.
//!
//! The runner measures what ISSUE 8 cares about: rounds/virtual-time to
//! convergence, bytes on the wire per node (via
//! [`CountingTransport`]), and the redundant-delivery ratio — how many
//! transaction payloads arrived at nodes that already held them. Running
//! the same fleet under [`RelayMode::Flood`] and [`RelayMode::Digest`]
//! quantifies the wire savings of digest-batched, duplicate-suppressed
//! relay.
//!
//! A partition/heal schedule can sever every link crossing a half/half
//! cut for a window of virtual time; dial attempts across the active cut
//! fail, exercising jittered reconnect backoff, and the heal exercises
//! anti-entropy plus credit replay on the fresh handshakes.

use biot_credit::{CreditEvent, CreditLedger, CreditParams, Misbehavior};
use biot_gossip::node::{GossipConfig, GossipNode, RelayMode};
use biot_gossip::transport::{
    ByteCounter, CountingTransport, FnConnector, JitterTransport, MemLink, MemTransport,
    Transport, TransportError, VirtualClock,
};
use biot_net::latency::UniformLatency;
use biot_net::time::SimTime;
use biot_tangle::graph::Tangle;
use biot_tangle::tx::{NodeId, Payload, Transaction, TransactionBuilder, TxId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

/// A half/half network cut active over `[start_ms, heal_ms)`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Partition {
    /// Virtual time at which every link crossing the cut is severed.
    pub start_ms: u64,
    /// Virtual time at which dials across the cut succeed again.
    pub heal_ms: u64,
}

/// Fleet shape, workload, and relay knobs for one mesh run.
#[derive(Clone, Debug)]
pub struct MeshConfig {
    /// Fleet size.
    pub nodes: usize,
    /// Outbound links per node in the seeded random topology (a ring
    /// keeps the graph connected; extra edges are drawn at random).
    pub degree: usize,
    /// Oracle transactions injected (genesis excluded).
    pub txs: usize,
    /// Data payload size per oracle transaction, bytes (a realistic
    /// sensor reading + signature envelope, not a toy marker).
    pub payload_bytes: usize,
    /// Oracle credit events injected.
    pub credit_events: usize,
    /// Master seed: topology, oracle DAG, origins, and link jitter all
    /// derive from it.
    pub seed: u64,
    /// Relay strategy under test.
    pub relay_mode: RelayMode,
    /// Relay fanout (0 = all peers) for digest mode.
    pub fanout: usize,
    /// Digest flush interval, ms.
    pub digest_ms: u64,
    /// Anti-entropy interval, ms.
    pub anti_entropy_ms: u64,
    /// Peer-exchange interval, ms (0 disables).
    pub peer_exchange_ms: u64,
    /// Uniform one-way link latency range `(min_ms, max_ms)`.
    pub jitter_ms: (u64, u64),
    /// Spacing between oracle transaction injections, ms.
    pub tx_interval_ms: u64,
    /// Poll step, ms.
    pub step_ms: u64,
    /// Abort threshold: give up (unconverged) past this virtual time.
    pub max_ms: u64,
    /// Optional partition/heal schedule.
    pub partition: Option<Partition>,
}

impl Default for MeshConfig {
    fn default() -> Self {
        Self {
            nodes: 16,
            degree: 8,
            txs: 200,
            payload_bytes: 256,
            credit_events: 48,
            seed: 42,
            relay_mode: RelayMode::Digest,
            fanout: 6,
            digest_ms: 25,
            anti_entropy_ms: 2_000,
            peer_exchange_ms: 30_000,
            jitter_ms: (5, 30),
            tx_interval_ms: 20,
            step_ms: 25,
            max_ms: 600_000,
            partition: None,
        }
    }
}

/// What one mesh run measured.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct MeshOutcome {
    /// Fleet size.
    pub nodes: usize,
    /// Oracle transactions injected.
    pub txs: usize,
    /// Every node matched the oracle bit-for-bit (tips, weights, credit).
    pub converged: bool,
    /// Virtual time at which convergence was first observed, ms.
    pub converged_ms: u64,
    /// Poll rounds executed.
    pub rounds: u64,
    /// Bytes sent fleet-wide (4-byte frame headers included).
    pub total_bytes_sent: u64,
    /// Frames sent fleet-wide.
    pub total_frames_sent: u64,
    /// `total_bytes_sent / nodes`.
    pub bytes_per_node: u64,
    /// Wire cost per node per *wire-delivered* transaction — the
    /// flatness-vs-N headline: `total_bytes_sent / nodes /
    /// (txs × (nodes − 1) / nodes)`. The denominator is the number of
    /// transactions a node actually has to obtain over the wire: its
    /// own submissions arrive locally, and that locally-originated
    /// fraction (1/N for a uniform workload) shrinks as the fleet
    /// grows. Dividing by raw `txs` instead would make the metric grow
    /// mechanically with N for *every* dissemination protocol — even a
    /// perfect one sending each payload exactly once — hiding whether
    /// the per-delivery overhead actually stays flat.
    pub bytes_per_node_per_tx: f64,
    /// The unnormalized figure: `total_bytes_sent / nodes / txs`.
    pub bytes_per_node_per_tx_raw: f64,
    /// Payload deliveries to nodes that already held the transaction.
    pub redundant_deliveries: u64,
    /// `redundant_deliveries / (nodes * txs)` — redundant copies per
    /// useful delivery.
    pub redundancy_ratio: f64,
    /// Relay sends skipped because the target was a known holder.
    pub dup_suppressed: u64,
    /// Digest frames sent fleet-wide.
    pub digests_sent: u64,
    /// Transaction ids carried in those digests.
    pub digest_ids_sent: u64,
    /// Peer-exchange frames sent fleet-wide.
    pub peer_exchanges_sent: u64,
    /// Credit events discarded as duplicates (exactly-once ledger feed).
    pub credit_events_deduped: u64,
    /// Handshakes completed fleet-wide (redials after a heal add more).
    pub handshakes: u64,
    /// Transaction payloads served/pushed fleet-wide.
    pub tx_payloads_sent: u64,
    /// `GetTx` requests sent fleet-wide (parent chases + stale retries).
    pub requests_sent: u64,
    /// Credit events broadcast fleet-wide (dedup-suppressed relay).
    pub credit_events_sent: u64,
    /// Credit-event keys advertised in `CreditKeys` digests fleet-wide.
    pub credit_keys_sent: u64,
}

/// The single-node reference a fleet must reproduce bit-for-bit.
struct Oracle {
    tangle: Tangle,
    ledger: CreditLedger,
    /// `(tx, attach_ms, origin node index)` in injection order.
    txs: Vec<(Transaction, u64, usize)>,
    /// `(event, emit_ms, origin node index)` in injection order.
    events: Vec<(CreditEvent, u64, usize)>,
    events_total: u64,
}

fn build_oracle(cfg: &MeshConfig) -> Oracle {
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0xD1A6_0000);
    let mut tangle = Tangle::new();
    let genesis = tangle.attach_genesis(NodeId([0xEE; 32]), 0);
    let mut ids = vec![genesis];
    let mut txs = Vec::with_capacity(cfg.txs);
    for k in 0..cfg.txs {
        let attach_ms = (k as u64 + 1) * cfg.tx_interval_ms;
        // Parents from a sliding recency window keep the DAG tangle-like
        // (several live tips) instead of a chain.
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
        let id = tangle
            .attach(tx.clone(), attach_ms)
            .expect("oracle parents always present");
        ids.push(id);
        let origin = rng.gen_range(0..cfg.nodes);
        txs.push((tx, attach_ms, origin));
    }
    // Credit schedule: whole-number weights and unique timestamps make
    // the ledger fold order-independent, so every replica computes the
    // same breakdown no matter how gossip reorders arrivals.
    let mut ledger = CreditLedger::new(CreditParams::default());
    let mut events = Vec::with_capacity(cfg.credit_events);
    let span = cfg.txs as u64 * cfg.tx_interval_ms;
    for e in 0..cfg.credit_events {
        let subject = NodeId([(e % 7) as u8 + 1; 32]);
        let weight = f64::from(rng.gen_range(1..=3u32));
        let at = SimTime::from_millis(1_000 + e as u64 * 13);
        let ev = if rng.gen_range(0..5u32) == 0 {
            let kind = if rng.gen_bool(0.5) {
                Misbehavior::LazyTips
            } else {
                Misbehavior::DoubleSpend
            };
            CreditEvent::misbehaved(subject, kind, at)
        } else {
            CreditEvent::validated(subject, weight, at)
        };
        ledger.apply(&ev);
        let emit_ms = rng.gen_range(0..=span.max(1));
        let origin = rng.gen_range(0..cfg.nodes);
        events.push((ev, emit_ms, origin));
    }
    events.sort_by_key(|&(_, at, _)| at);
    Oracle { tangle, ledger, txs, events, events_total: cfg.credit_events as u64 }
}

/// Far ends of freshly dialed links, grouped by accepting node.
type AcceptQueues = Arc<Mutex<Vec<Vec<Box<dyn Transport>>>>>;

/// Which side of the half/half cut a node sits on.
fn side(i: usize, n: usize) -> bool {
    i < n / 2
}

struct Fleet {
    nodes: Vec<GossipNode>,
    ledgers: Vec<CreditLedger>,
    counters: Vec<ByteCounter>,
    clock: VirtualClock,
    /// Far ends of freshly dialed links, waiting to be accepted.
    accept: AcceptQueues,
    /// Kill switches of live links, tagged with their endpoints.
    links: Arc<Mutex<Vec<(usize, usize, MemLink)>>>,
    cut: Arc<AtomicBool>,
}

/// Random bounded-degree connected topology: a ring plus seeded chords.
/// Shared with [`crate::roles`], which wires a mixed-role fleet over the
/// same link shapes.
pub(crate) fn seeded_edges(n: usize, degree: usize, seed: u64) -> Vec<(usize, usize)> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x7070_1234);
    let mut set = BTreeSet::new();
    for i in 0..n {
        set.insert((i.min((i + 1) % n), i.max((i + 1) % n)));
    }
    let mut deg = vec![2usize; n];
    for i in 0..n {
        let mut attempts = 0;
        while deg[i] < degree && attempts < 64 {
            attempts += 1;
            let j = rng.gen_range(0..n);
            if j == i {
                continue;
            }
            if set.insert((i.min(j), i.max(j))) {
                deg[i] += 1;
                deg[j] += 1;
            }
        }
    }
    set.into_iter().collect()
}

fn build_fleet(cfg: &MeshConfig, genesis_issuer: NodeId) -> Fleet {
    let n = cfg.nodes;
    let clock = VirtualClock::new();
    let counters: Vec<ByteCounter> = (0..n).map(|_| ByteCounter::new()).collect();
    let accept: AcceptQueues = Arc::new(Mutex::new((0..n).map(|_| Vec::new()).collect()));
    let links = Arc::new(Mutex::new(Vec::new()));
    let cut = Arc::new(AtomicBool::new(false));

    let mut nodes: Vec<GossipNode> = (0..n)
        .map(|i| {
            let node_cfg = GossipConfig {
                node_id: i as u64 + 1,
                listen_addr: Some(format!("mesh:{}", i + 1)),
                relay_mode: cfg.relay_mode,
                fanout: cfg.fanout,
                digest_ms: cfg.digest_ms,
                anti_entropy_ms: cfg.anti_entropy_ms,
                peer_exchange_ms: cfg.peer_exchange_ms,
                max_pending: cfg.txs + 64,
                // Partitions outlive the default failure budget; keep
                // dialing so the heal reconnects the fleet.
                max_connect_failures: 100_000,
                backoff_max_ms: 4_000,
                request_retry_ms: 200,
                seed: cfg.seed,
                ..GossipConfig::default()
            };
            let node = GossipNode::with_empty_tangle(node_cfg);
            node.tangle().lock().unwrap().attach_genesis(genesis_issuer, 0);
            node
        })
        .collect();

    for (i, j) in seeded_edges(cfg.nodes, cfg.degree, cfg.seed) {
        let accept = Arc::clone(&accept);
        let links = Arc::clone(&links);
        let cut = Arc::clone(&cut);
        let clock_i = clock.clone();
        let counter_i = counters[i].clone();
        let counter_j = counters[j].clone();
        let model = UniformLatency::new(cfg.jitter_ms.0, cfg.jitter_ms.1);
        let (seed_i, seed_j) = (
            cfg.seed ^ (i as u64) << 20 ^ (j as u64) << 4 ^ 1,
            cfg.seed ^ (i as u64) << 20 ^ (j as u64) << 4 ^ 2,
        );
        let n_nodes = n;
        // The lower endpoint owns the dial; the upper end shows up in the
        // accept queue. Identified hellos keep accidental duplicates out.
        nodes[i].connect(Box::new(FnConnector(move || {
            if cut.load(Ordering::SeqCst) && side(i, n_nodes) != side(j, n_nodes) {
                return Err(TransportError::Closed);
            }
            let (a, b, link) = MemTransport::pair();
            links.lock().unwrap().push((i, j, link));
            let far: Box<dyn Transport> = Box::new(CountingTransport::new(
                Box::new(JitterTransport::new(
                    Box::new(b),
                    Box::new(model),
                    seed_j,
                    clock_i.clone(),
                )),
                counter_j.clone(),
            ));
            accept.lock().unwrap()[j].push(far);
            Ok(Box::new(CountingTransport::new(
                Box::new(JitterTransport::new(
                    Box::new(a),
                    Box::new(model),
                    seed_i,
                    clock_i.clone(),
                )),
                counter_i.clone(),
            )) as Box<dyn Transport>)
        })));
    }

    let ledgers = (0..n)
        .map(|_| CreditLedger::new(CreditParams::default()))
        .collect();
    Fleet { nodes, ledgers, counters, clock, accept, links, cut }
}

/// Runs one seeded fleet to convergence (or `max_ms`) and reports.
pub fn run_mesh(cfg: &MeshConfig) -> MeshOutcome {
    assert!(cfg.nodes >= 2, "a mesh needs at least two nodes");
    let oracle = build_oracle(cfg);
    let mut fleet = build_fleet(cfg, NodeId([0xEE; 32]));

    let mut injected = vec![false; oracle.txs.len()];
    let mut next_tx = 0usize;
    let mut next_ev = 0usize;
    let mut cut_applied = false;
    let mut healed = cfg.partition.is_none();
    let mut now = 0u64;
    let mut rounds = 0u64;
    let mut converged_ms = 0u64;
    let mut converged = false;

    while now <= cfg.max_ms {
        fleet.clock.set(now);
        if let Some(p) = cfg.partition {
            if !cut_applied && now >= p.start_ms {
                cut_applied = true;
                fleet.cut.store(true, Ordering::SeqCst);
                let links = fleet.links.lock().unwrap();
                for (i, j, link) in links.iter() {
                    if side(*i, cfg.nodes) != side(*j, cfg.nodes) {
                        link.kill();
                    }
                }
            }
            if cut_applied && !healed && now >= p.heal_ms {
                healed = true;
                fleet.cut.store(false, Ordering::SeqCst);
            }
        }
        // A gateway issues a transaction referencing tips it has synced;
        // the oracle pre-decides the parents, so each injection waits
        // until its origin actually holds them (issuance follows sync).
        // Deterministic: scan order and tangle state are both seeded.
        #[allow(clippy::needless_range_loop)] // `k` also indexes `injected`
        for k in next_tx..oracle.txs.len() {
            let (tx, attach_ms, origin) = &oracle.txs[k];
            if *attach_ms > now {
                break;
            }
            if injected[k] {
                continue;
            }
            let parents_known = {
                let t = fleet.nodes[*origin].tangle().lock().unwrap();
                tx.parents().into_iter().all(|p| t.contains(&p))
            };
            if parents_known {
                fleet.nodes[*origin].submit(tx.clone(), *attach_ms, now);
                injected[k] = true;
            }
        }
        while next_tx < oracle.txs.len() && injected[next_tx] {
            next_tx += 1;
        }
        while next_ev < oracle.events.len() && oracle.events[next_ev].1 <= now {
            let (ev, _, origin) = &oracle.events[next_ev];
            fleet.ledgers[*origin].apply(ev);
            fleet.nodes[*origin].broadcast_credit_events(&[*ev], now);
            next_ev += 1;
        }
        {
            let mut accept = fleet.accept.lock().unwrap();
            for (j, inbox) in accept.iter_mut().enumerate() {
                for t in inbox.drain(..) {
                    fleet.nodes[j].add_transport(t, now);
                }
            }
        }
        for node in fleet.nodes.iter_mut() {
            node.poll(now);
        }
        for (node, ledger) in fleet.nodes.iter_mut().zip(fleet.ledgers.iter_mut()) {
            for ev in node.take_credit_events() {
                ledger.apply(&ev);
            }
        }
        rounds += 1;

        if std::env::var("BIOT_MESH_DEBUG").is_ok() && now.is_multiple_of(1_000) {
            let want = oracle.tangle.len();
            let lens: Vec<usize> =
                fleet.nodes.iter().map(|n| n.tangle().lock().unwrap().len()).collect();
            let behind = lens.iter().filter(|&&l| l < want).count();
            let pending: usize = fleet.nodes.iter().map(|n| n.pending_len()).sum();
            let ev_behind = fleet
                .ledgers
                .iter()
                .filter(|l| l.events_applied() < oracle.events_total)
                .count();
            let (mut dg, mut dg_ids, mut reqs, mut served, mut misses) =
                (0u64, 0u64, 0u64, 0u64, 0u64);
            for n in &fleet.nodes {
                let s = n.stats();
                dg += s.digests_sent;
                dg_ids += s.digest_ids_sent;
                reqs += s.requests_sent;
                served += s.tx_sent;
                misses += s.gettx_misses;
            }
            let (mut disc, mut inval, mut hs) = (0u64, 0u64, 0u64);
            for n in &fleet.nodes {
                let s = n.stats();
                disc += s.disconnects;
                inval += s.invalid_frames;
                hs += s.handshakes;
            }
            eprint!("[disc={disc} invalid={inval} handshakes={hs}] ");
            eprintln!(
                "[mesh {}ms] behind={behind}/{} min_len={} want={want} pending={pending} ev_behind={ev_behind} digests={dg} ids={dg_ids} reqs={reqs} served={served} misses={misses}",
                now,
                fleet.nodes.len(),
                lens.iter().min().unwrap(),
            );
        }
        let workload_done = next_tx == oracle.txs.len() && next_ev == oracle.events.len();
        if workload_done && healed && fleet_matches_oracle(&fleet, &oracle, cfg.max_ms) {
            converged = true;
            converged_ms = now;
            break;
        }
        now += cfg.step_ms.max(1);
    }

    let mut out = MeshOutcome {
        nodes: cfg.nodes,
        txs: cfg.txs,
        converged,
        converged_ms,
        rounds,
        ..MeshOutcome::default()
    };
    for c in &fleet.counters {
        out.total_bytes_sent += c.sent();
        out.total_frames_sent += c.frames_sent();
    }
    out.bytes_per_node = out.total_bytes_sent / cfg.nodes as u64;
    out.bytes_per_node_per_tx_raw =
        out.total_bytes_sent as f64 / cfg.nodes as f64 / cfg.txs.max(1) as f64;
    let delivered_per_node =
        cfg.txs.max(1) as f64 * (cfg.nodes.max(2) - 1) as f64 / cfg.nodes.max(2) as f64;
    out.bytes_per_node_per_tx = out.total_bytes_sent as f64 / cfg.nodes as f64 / delivered_per_node;
    for node in &fleet.nodes {
        let s = node.stats();
        out.redundant_deliveries += s.duplicates;
        out.dup_suppressed += s.dup_suppressed;
        out.digests_sent += s.digests_sent;
        out.digest_ids_sent += s.digest_ids_sent;
        out.peer_exchanges_sent += s.peer_exchanges_sent;
        out.credit_events_deduped += s.credit_events_deduped;
        out.handshakes += s.handshakes;
        out.tx_payloads_sent += s.tx_sent;
        out.requests_sent += s.requests_sent;
        out.credit_events_sent += s.credit_events_sent;
        out.credit_keys_sent += s.credit_keys_sent;
    }
    out.redundancy_ratio =
        out.redundant_deliveries as f64 / (cfg.nodes as f64 * cfg.txs.max(1) as f64);
    out
}

/// Bit-for-bit convergence: every node's tips, every transaction's
/// cumulative weight, and every known node's credit breakdown equal the
/// oracle's.
fn fleet_matches_oracle(fleet: &Fleet, oracle: &Oracle, probe_ms: u64) -> bool {
    let want_len = oracle.tangle.len();
    let want_tips = oracle.tangle.tips();
    let oracle_ids: Vec<TxId> = oracle.tangle.iter().map(|tx| tx.id()).collect();
    let probe = SimTime::from_millis(probe_ms);
    let subjects: Vec<NodeId> = oracle.ledger.known_nodes().copied().collect();
    for (node, ledger) in fleet.nodes.iter().zip(fleet.ledgers.iter()) {
        if node.pending_len() != 0 || ledger.events_applied() != oracle.events_total {
            return false;
        }
        let t = node.tangle().lock().unwrap();
        if t.len() != want_len || t.tips() != want_tips {
            return false;
        }
        if !oracle_ids
            .iter()
            .all(|id| t.cumulative_weight(id) == oracle.tangle.cumulative_weight(id))
        {
            return false;
        }
        if !subjects.iter().all(|&nid| {
            let a = oracle.ledger.credit_of(nid, probe);
            let b = ledger.credit_of(nid, probe);
            a.positive == b.positive && a.negative == b.negative && a.combined == b.combined
        }) {
            return false;
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small(relay: RelayMode) -> MeshConfig {
        MeshConfig {
            nodes: 8,
            degree: 4,
            txs: 60,
            credit_events: 16,
            relay_mode: relay,
            ..MeshConfig::default()
        }
    }

    #[test]
    fn small_digest_mesh_converges_bit_for_bit() {
        let out = run_mesh(&small(RelayMode::Digest));
        assert!(out.converged, "digest mesh must converge: {out:?}");
        assert!(out.digests_sent > 0);
    }

    #[test]
    fn small_flood_mesh_converges_and_costs_more_wire() {
        let flood = run_mesh(&small(RelayMode::Flood));
        assert!(flood.converged, "flood mesh must converge: {flood:?}");
        let digest = run_mesh(&small(RelayMode::Digest));
        assert!(
            digest.total_bytes_sent < flood.total_bytes_sent,
            "digest relay must beat flood: {} vs {}",
            digest.total_bytes_sent,
            flood.total_bytes_sent
        );
        assert!(digest.redundancy_ratio < flood.redundancy_ratio);
    }

    #[test]
    fn seeded_runs_are_identical() {
        let a = run_mesh(&small(RelayMode::Digest));
        let b = run_mesh(&small(RelayMode::Digest));
        assert_eq!(a, b, "same seed, same fleet, same report");
    }

    #[test]
    fn partitioned_mesh_heals_and_converges() {
        let cfg = MeshConfig {
            partition: Some(Partition { start_ms: 300, heal_ms: 2_000 }),
            ..small(RelayMode::Digest)
        };
        let out = run_mesh(&cfg);
        assert!(out.converged, "post-heal convergence failed: {out:?}");
        // Healing redials the severed links, so the fleet completes more
        // handshakes than it has edges.
        let unpartitioned = run_mesh(&small(RelayMode::Digest));
        assert!(out.handshakes > unpartitioned.handshakes);
    }
}
