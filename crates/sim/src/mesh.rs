//! N-node gossip mesh fleet runner, and the fleet harness both fleet
//! runners share.
//!
//! Stands up a fleet of [`GossipNode`]s as members of one [`EventLoop`]
//! on a [`VirtualClock`], wires them over seeded jittered, byte-counted
//! in-memory links in a random bounded-degree topology, injects a
//! pre-generated oracle workload — a DAG of transactions plus a
//! credit-event schedule, each item surfacing at a seeded origin node —
//! and pumps the loop one scripted step at a time until every node has
//! converged to the oracle **bit-for-bit**: identical tip sets,
//! identical cumulative weights for every transaction, and an identical
//! `(CrP, CrN, Cr)` breakdown for every node the credit ledger knows.
//!
//! The runner measures event-loop wakeups and virtual time to
//! convergence, bytes on the wire per node (via [`CountingTransport`]),
//! and the redundant-delivery ratio — how many transaction payloads
//! arrived at nodes that already held them. Running the same fleet under
//! [`RelayMode::Flood`] and [`RelayMode::Digest`] quantifies the wire
//! savings of digest-batched, duplicate-suppressed relay.
//!
//! A partition/heal schedule can sever every link crossing a half/half
//! cut for a window of virtual time; dial attempts across the active cut
//! fail, exercising jittered reconnect backoff, and the heal exercises
//! anti-entropy plus the credit watermark adverts of the fresh handshakes.
//!
//! [`crate::roles`] drives the same harness — workload, wiring,
//! injection and matcher — with an archival and a validation node in
//! the fleet.

use biot_credit::{CreditEvent, CreditLedger, CreditParams, Misbehavior};
use biot_gossip::node::{GossipConfig, GossipNode, RelayMode};
use biot_gossip::transport::{
    ByteCounter, CountingTransport, FnConnector, JitterTransport, MemLink, MemTransport, Transport,
    TransportError, VirtualClock,
};
use biot_net::latency::UniformLatency;
use biot_net::time::SimTime;
use biot_node::{EventLoop, MemberId};
use biot_tangle::graph::Tangle;
use biot_tangle::tx::{NodeId, Payload, Transaction, TransactionBuilder, TxId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};
use std::ops::Range;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

/// Gossip digest flush interval on every fleet member, ms.
pub const DIGEST_MS: u64 = 25;
/// Gossip anti-entropy interval on every fleet member, ms.
pub const ANTI_ENTROPY_MS: u64 = 2_000;
/// Uniform one-way link latency range `(min_ms, max_ms)`.
pub const JITTER_MS: (u64, u64) = (5, 30);
/// Spacing between oracle transaction injections, ms.
pub const TX_INTERVAL_MS: u64 = 20;
/// Virtual time between scripted injection steps, ms. Each step pumps
/// the event loop through every deadline due by then.
pub const STEP_MS: u64 = 25;
/// Give-up horizon in virtual ms; also the instant credit is compared at.
pub const MAX_MS: u64 = 600_000;

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
    /// Peer-exchange interval, ms (0 disables).
    pub peer_exchange_ms: u64,
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
            peer_exchange_ms: 30_000,
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
    /// Event-loop wakeups: one per deadline the loop dispatched at.
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
    /// Items pulled fleet-wide: tx ids (parent chases, digests, stale
    /// retries) and credit ranges.
    pub requests_sent: u64,
    /// Credit events served fleet-wide in answer to pulls.
    pub credit_events_sent: u64,
    /// Credit watermarks advertised in `CreditVersions` frames fleet-wide.
    pub credit_versions_sent: u64,
    /// Frames and bytes sent fleet-wide, by message kind (named from the
    /// frame's tag byte by [`frame_kind`]): the bytes sum to
    /// `total_bytes_sent`.
    pub frames_by_kind: BTreeMap<String, KindCount>,
}

/// Frames and bytes of one message kind.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct KindCount {
    /// Frames sent.
    pub frames: u64,
    /// Bytes sent, 4-byte frame headers included.
    pub bytes: u64,
}

/// The gossip message kind a frame's tag byte names (see
/// `biot_gossip::wire`).
pub fn frame_kind(tag: u8) -> &'static str {
    match tag {
        0 => "hello",
        3 => "tx_payload",
        4 => "get_tips",
        5 => "tips",
        6 => "heartbeat",
        7 => "get_baseline",
        8 => "baseline",
        9 => "credit_events",
        10 => "peer_exchange",
        11 => "digest",
        12 => "get_txs",
        15 => "credit_versions",
        16 => "get_credit",
        _ => "unknown",
    }
}

/// The single-node reference a fleet must reproduce bit-for-bit: a
/// seeded DAG plus a credit-event schedule, each item surfacing at a
/// seeded origin node.
pub(crate) struct Workload {
    /// Issuer of the genesis every member starts from.
    pub(crate) genesis_issuer: NodeId,
    pub(crate) tangle: Tangle,
    pub(crate) ledger: CreditLedger,
    /// `(tx, attach_ms, origin node index)` in injection order.
    pub(crate) txs: Vec<(Transaction, u64, usize)>,
    /// `(event, emit_ms, origin node index)` in injection order.
    pub(crate) events: Vec<(CreditEvent, u64, usize)>,
}

/// Builds a [`Workload`] from `seed`: `txs` transactions of
/// `payload_bytes` each and `credit_events` events, every origin drawn
/// from `origins`.
pub(crate) fn build_workload(
    seed: u64,
    txs: usize,
    payload_bytes: usize,
    credit_events: usize,
    genesis_issuer: NodeId,
    origins: Range<usize>,
) -> Workload {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut tangle = Tangle::new();
    let genesis = tangle.attach_genesis(genesis_issuer, 0);
    let mut ids = vec![genesis];
    let mut scheduled = Vec::with_capacity(txs);
    for k in 0..txs {
        let attach_ms = (k as u64 + 1) * TX_INTERVAL_MS;
        // Parents from a sliding recency window keep the DAG tangle-like
        // (several live tips) instead of a chain.
        let window = ids.len().min(24);
        let trunk = ids[ids.len() - 1 - rng.gen_range(0..window)];
        let branch = ids[ids.len() - 1 - rng.gen_range(0..window)];
        let mut issuer = [0u8; 32];
        issuer[0] = (k % 249) as u8 + 1;
        issuer[1] = (k / 249) as u8;
        let mut payload = (k as u32).to_be_bytes().to_vec();
        payload.resize(payload_bytes.max(4), (k % 251) as u8);
        let tx = TransactionBuilder::new(NodeId(issuer))
            .parents(trunk, branch)
            .payload(Payload::Data(payload))
            .timestamp_ms(attach_ms)
            .build();
        let id = tangle
            .attach(tx.clone(), attach_ms)
            .expect("oracle parents always present");
        ids.push(id);
        let origin = rng.gen_range(origins.clone());
        scheduled.push((tx, attach_ms, origin));
    }
    // Credit schedule: whole-number weights and unique timestamps make
    // the ledger fold order-independent, so every replica computes the
    // same breakdown no matter how gossip reorders arrivals.
    let mut ledger = CreditLedger::new(CreditParams::default());
    let mut events = Vec::with_capacity(credit_events);
    let span = txs as u64 * TX_INTERVAL_MS;
    for e in 0..credit_events {
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
        let origin = rng.gen_range(origins.clone());
        events.push((ev, emit_ms, origin));
    }
    events.sort_by_key(|&(_, at, _)| at);
    Workload {
        genesis_issuer,
        tangle,
        ledger,
        txs: scheduled,
        events,
    }
}

/// Random bounded-degree connected topology: a ring plus seeded chords.
fn seeded_edges(n: usize, degree: usize, seed: u64) -> Vec<(usize, usize)> {
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

/// Which side of the half/half cut a node sits on.
fn side(i: usize, n: usize) -> bool {
    i < n / 2
}

/// Far ends of freshly dialed links, grouped by accepting node index.
type AcceptQueues = Arc<Mutex<Vec<Vec<Box<dyn Transport>>>>>;

/// Event-loop members on seeded jittered links, plus the cursor that
/// feeds them one [`Workload`]. Node index `i` is member `ids[i]`.
pub(crate) struct Fleet {
    pub(crate) el: EventLoop,
    pub(crate) ids: Vec<MemberId>,
    clock: VirtualClock,
    /// Bytes and frames each node sent.
    counters: Vec<ByteCounter>,
    accept: AcceptQueues,
    /// Kill switches of live links, tagged with their endpoints.
    links: Arc<Mutex<Vec<(usize, usize, MemLink)>>>,
    /// While set, dials across the half/half cut fail.
    cut: Arc<AtomicBool>,
    injected: Vec<bool>,
    next_tx: usize,
    next_ev: usize,
}

impl Fleet {
    /// Attaches the workload's genesis on every member of `el` (driven
    /// by `clock`) and wires [`seeded_edges`] between them: the lower
    /// endpoint owns the dial, the upper one finds the far end in its
    /// accept queue.
    pub(crate) fn wire(
        clock: VirtualClock,
        mut el: EventLoop,
        ids: Vec<MemberId>,
        workload: &Workload,
        degree: usize,
        seed: u64,
    ) -> Self {
        let n = ids.len();
        let counters: Vec<ByteCounter> = (0..n).map(|_| ByteCounter::new()).collect();
        let accept: AcceptQueues = Arc::new(Mutex::new((0..n).map(|_| Vec::new()).collect()));
        let links = Arc::new(Mutex::new(Vec::new()));
        let cut = Arc::new(AtomicBool::new(false));
        for &id in &ids {
            let gossip = el.gossip(id).expect("member exists");
            let mut tangle = gossip.tangle().lock().expect("tangle lock poisoned");
            tangle.attach_genesis(workload.genesis_issuer, 0);
        }
        for (i, j) in seeded_edges(n, degree, seed) {
            let accept = Arc::clone(&accept);
            let links = Arc::clone(&links);
            let cut = Arc::clone(&cut);
            let clock = clock.clone();
            let (counter_i, counter_j) = (counters[i].clone(), counters[j].clone());
            let model = UniformLatency::new(JITTER_MS.0, JITTER_MS.1);
            let (seed_i, seed_j) = (
                seed ^ (i as u64) << 20 ^ (j as u64) << 4 ^ 1,
                seed ^ (i as u64) << 20 ^ (j as u64) << 4 ^ 2,
            );
            let end = move |t: MemTransport, seed: u64, counter: &ByteCounter| {
                Box::new(CountingTransport::new(
                    Box::new(JitterTransport::new(
                        Box::new(t),
                        Box::new(model),
                        seed,
                        clock.clone(),
                    )),
                    counter.clone(),
                )) as Box<dyn Transport>
            };
            let gossip = el.gossip_mut(ids[i]).expect("member exists");
            gossip.connect(Box::new(FnConnector(move || {
                if cut.load(Ordering::SeqCst) && side(i, n) != side(j, n) {
                    return Err(TransportError::Closed);
                }
                let (a, b, link) = MemTransport::pair();
                links
                    .lock()
                    .expect("link list lock poisoned")
                    .push((i, j, link));
                accept.lock().expect("accept queue lock poisoned")[j]
                    .push(end(b, seed_j, &counter_j));
                Ok(end(a, seed_i, &counter_i))
            })));
        }
        let injected = vec![false; workload.txs.len()];
        Fleet {
            el,
            ids,
            clock,
            counters,
            accept,
            links,
            cut,
            injected,
            next_tx: 0,
            next_ev: 0,
        }
    }

    /// Moves the clock to `now` and injects every workload item due by
    /// then. A transaction waits until its origin holds both pre-decided
    /// parents — a gateway issues on tips it has synced — and a credit
    /// event is folded into its origin's own projection, since a
    /// broadcast does not loop back.
    pub(crate) fn inject(&mut self, workload: &Workload, now: u64) {
        self.clock.set(now);
        #[allow(clippy::needless_range_loop)] // `k` also indexes `injected`
        for k in self.next_tx..workload.txs.len() {
            let (tx, attach_ms, origin) = &workload.txs[k];
            if *attach_ms > now {
                break;
            }
            if self.injected[k] {
                continue;
            }
            let gossip = self
                .el
                .gossip_mut(self.ids[*origin])
                .expect("member exists");
            let parents_known = {
                let t = gossip.tangle().lock().expect("tangle lock poisoned");
                tx.parents().into_iter().all(|p| t.contains(&p))
            };
            if parents_known {
                gossip.submit(tx.clone(), *attach_ms, now);
                self.injected[k] = true;
            }
        }
        while self.next_tx < workload.txs.len() && self.injected[self.next_tx] {
            self.next_tx += 1;
        }
        while self.next_ev < workload.events.len() && workload.events[self.next_ev].1 <= now {
            let (ev, _, origin) = &workload.events[self.next_ev];
            let id = self.ids[*origin];
            self.el
                .ledger_mut(id)
                .expect("workload origins are bare gossip members")
                .apply(ev);
            self.el
                .gossip_mut(id)
                .expect("member exists")
                .broadcast_credit_events(&[*ev], now);
            self.next_ev += 1;
        }
    }

    /// Whether every workload item has been injected.
    pub(crate) fn injected_all(&self, workload: &Workload) -> bool {
        self.next_tx == workload.txs.len() && self.next_ev == workload.events.len()
    }

    /// Hands freshly dialed links to their accepting members, then runs
    /// every deadline due by `now`.
    pub(crate) fn pump(&mut self, now: u64) {
        for (j, inbox) in self
            .accept
            .lock()
            .expect("accept queue lock poisoned")
            .iter_mut()
            .enumerate()
        {
            for t in inbox.drain(..) {
                self.el
                    .gossip_mut(self.ids[j])
                    .expect("member exists")
                    .add_transport(t, now);
            }
        }
        self.el.pump(now).expect("event-loop pump");
    }

    /// Bit-for-bit check: nothing is pending anywhere; every member's
    /// gossip tangle — and a validation node's gateway tangle — has the
    /// oracle's length, tips and cumulative weights; and every member's
    /// ledger has folded `events_total` events and agrees with `ledger`
    /// on every known device's `(CrP, CrN, Cr)` at [`MAX_MS`].
    pub(crate) fn matches(
        &self,
        tangle: &Tangle,
        ledger: &CreditLedger,
        events_total: u64,
    ) -> bool {
        let want_tips = tangle.tips();
        let oracle_ids: Vec<TxId> = tangle.iter().map(|tx| tx.id()).collect();
        let probe = SimTime::from_millis(MAX_MS);
        let subjects: Vec<NodeId> = ledger.known_nodes().copied().collect();
        let tangle_matches = |t: &Tangle| {
            t.len() == tangle.len()
                && t.tips() == want_tips
                && oracle_ids
                    .iter()
                    .all(|id| t.cumulative_weight(id) == tangle.cumulative_weight(id))
        };
        let ledger_matches = |l: &CreditLedger| {
            l.events_applied() == events_total
                && subjects.iter().all(|&nid| {
                    let (a, b) = (ledger.credit_of(nid, probe), l.credit_of(nid, probe));
                    a.positive == b.positive && a.negative == b.negative && a.combined == b.combined
                })
        };
        self.ids.iter().all(|&id| {
            let gossip = self.el.gossip(id).expect("member exists");
            let (member_ledger, gateway_tangle) = if let Some(a) = self.el.archival(id) {
                (a.credits(), None)
            } else if let Some(v) = self.el.validation(id) {
                (v.gateway().credits(), Some(v.gateway().tangle()))
            } else {
                (
                    self.el
                        .ledger(id)
                        .expect("bare gossip member holds a ledger"),
                    None,
                )
            };
            gossip.pending_len() == 0
                && tangle_matches(&gossip.tangle().lock().expect("tangle lock poisoned"))
                && ledger_matches(member_ledger)
                && gateway_tangle.is_none_or(tangle_matches)
        })
    }

    /// Severs every live link crossing the half/half cut and fails dials
    /// across it until [`Fleet::heal`].
    fn partition(&self) {
        let n = self.ids.len();
        self.cut.store(true, Ordering::SeqCst);
        for (i, j, link) in self.links.lock().expect("link list lock poisoned").iter() {
            if side(*i, n) != side(*j, n) {
                link.kill();
            }
        }
    }

    /// Lets dials across the half/half cut succeed again.
    fn heal(&self) {
        self.cut.store(false, Ordering::SeqCst);
    }
}

/// Runs one seeded fleet to convergence (or [`MAX_MS`]) and reports.
pub fn run_mesh(cfg: &MeshConfig) -> MeshOutcome {
    assert!(cfg.nodes >= 2, "a mesh needs at least two nodes");
    let workload = build_workload(
        cfg.seed ^ 0xD1A6_0000,
        cfg.txs,
        cfg.payload_bytes,
        cfg.credit_events,
        NodeId([0xEE; 32]),
        0..cfg.nodes,
    );
    let clock = VirtualClock::new();
    let mut el = EventLoop::with_clock(Box::new(clock.clone())).expect("event loop boots");
    let ids = (0..cfg.nodes)
        .map(|i| {
            el.add_gossip(GossipNode::with_empty_tangle(GossipConfig {
                node_id: i as u64 + 1,
                listen_addr: Some(format!("mesh:{}", i + 1)),
                relay_mode: cfg.relay_mode,
                fanout: cfg.fanout,
                digest_ms: DIGEST_MS,
                anti_entropy_ms: ANTI_ENTROPY_MS,
                peer_exchange_ms: cfg.peer_exchange_ms,
                max_pending: cfg.txs + 64,
                // Partitions outlive the default failure budget; keep
                // dialing so the heal reconnects the fleet.
                max_connect_failures: 100_000,
                backoff_max_ms: 4_000,
                request_retry_ms: 200,
                seed: cfg.seed,
                ..GossipConfig::default()
            }))
        })
        .collect();
    let mut fleet = Fleet::wire(clock, el, ids, &workload, cfg.degree, cfg.seed);
    let events_total = workload.events.len() as u64;

    let mut cut_applied = false;
    let mut healed = cfg.partition.is_none();
    let mut now = 0u64;
    let mut out = MeshOutcome {
        nodes: cfg.nodes,
        txs: cfg.txs,
        ..MeshOutcome::default()
    };
    while now <= MAX_MS {
        if let Some(p) = cfg.partition {
            if !cut_applied && now >= p.start_ms {
                cut_applied = true;
                fleet.partition();
            }
            if cut_applied && !healed && now >= p.heal_ms {
                healed = true;
                fleet.heal();
            }
        }
        fleet.inject(&workload, now);
        fleet.pump(now);
        if fleet.injected_all(&workload)
            && healed
            && fleet.matches(&workload.tangle, &workload.ledger, events_total)
        {
            out.converged = true;
            out.converged_ms = now;
            break;
        }
        now += STEP_MS;
    }

    out.rounds = fleet.el.wakeups();
    for c in &fleet.counters {
        out.total_bytes_sent += c.sent();
        out.total_frames_sent += c.frames_sent();
        for (tag, (frames, bytes)) in c.sent_by_tag() {
            let k = out.frames_by_kind.entry(frame_kind(tag).to_string()).or_default();
            k.frames += frames;
            k.bytes += bytes;
        }
    }
    out.bytes_per_node = out.total_bytes_sent / cfg.nodes as u64;
    out.bytes_per_node_per_tx_raw =
        out.total_bytes_sent as f64 / cfg.nodes as f64 / cfg.txs.max(1) as f64;
    let delivered_per_node =
        cfg.txs.max(1) as f64 * (cfg.nodes.max(2) - 1) as f64 / cfg.nodes.max(2) as f64;
    out.bytes_per_node_per_tx = out.total_bytes_sent as f64 / cfg.nodes as f64 / delivered_per_node;
    for &id in &fleet.ids {
        let s = fleet.el.gossip(id).expect("member exists").stats();
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
        out.credit_versions_sent += s.credit_versions_sent;
    }
    out.redundancy_ratio =
        out.redundant_deliveries as f64 / (cfg.nodes as f64 * cfg.txs.max(1) as f64);
    out
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
            partition: Some(Partition {
                start_ms: 300,
                heal_ms: 2_000,
            }),
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
