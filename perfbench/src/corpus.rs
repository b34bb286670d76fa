//! The seeded corpus: everything a run submits or asks, generated before
//! any timed phase and cached by workload, seed and scale.
//!
//! Generation drives an in-process *twin* — a `Gateway` built exactly like
//! the live validation node's — through the same schedule the live run
//! follows: the same virtual instants, the same `refresh` points, the same
//! frames in the same order. Each transaction is mined at the difficulty
//! the twin demands at its instant, signed, and submitted to the twin, so
//! the twin's answer is the ack code the live node must give. The twin's
//! final tips, cumulative weights and credit breakdowns are kept as the
//! expected end state.

use biot_core::node::{Gateway, GatewayConfig, LightNode, Manager, SubmitError};
use biot_core::pow::{pow_hash, Difficulty};
use biot_core::{Account, InverseProportionalPolicy};
use biot_crypto::bignum::BigUint;
use biot_crypto::rsa::RsaPublicKey;
use biot_crypto::sha256::{leading_zero_bits, sha256};
use biot_ingest::AckCode;
use biot_net::time::SimTime;
use biot_tangle::codec::{decode_tx, encode_tx};
use biot_tangle::graph::Tangle;
use biot_tangle::tx::{NodeId, Payload, Transaction, TransactionBuilder, TxId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::path::Path;

/// Gateway seal lag, shared by the live validation node and the twin.
pub const SEAL_LAG: usize = 256;
/// Parents older than this (virtual ms) leave the honest parent pool; the
/// lazy-tip policy calls a parent stale past 30 s.
const POOL_MAX_AGE_MS: u64 = 20_000;
const MAGIC: &[u8; 8] = b"BIOTPB02";

/// The three traffic mixes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Large batches from honest devices on two ingest connections.
    IngestBurst,
    /// Deep snapshot boot, keep-alive queries, single-tx frames.
    ReadTrickle,
    /// Smaller batches with a quarter of the devices misbehaving.
    AttackMix,
}

impl Workload {
    /// Parses the command-line name.
    pub fn parse(name: &str) -> Option<Self> {
        match name {
            "ingest_burst" => Some(Self::IngestBurst),
            "read_trickle" => Some(Self::ReadTrickle),
            "attack_mix" => Some(Self::AttackMix),
            _ => None,
        }
    }

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Self::IngestBurst => "ingest_burst",
            Self::ReadTrickle => "read_trickle",
            Self::AttackMix => "attack_mix",
        }
    }

    fn tag(self) -> u8 {
        match self {
            Self::IngestBurst => 0,
            Self::ReadTrickle => 1,
            Self::AttackMix => 2,
        }
    }

    fn from_tag(t: u8) -> Option<Self> {
        [Self::IngestBurst, Self::ReadTrickle, Self::AttackMix]
            .into_iter()
            .find(|w| w.tag() == t)
    }
}

/// Shape of one corpus. `steps` is the scale knob; the rest is fixed per
/// workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Params {
    /// Authorized devices that always behave.
    pub honest: usize,
    /// Authorized devices that misbehave part of the time.
    pub attackers: usize,
    /// Unregistered keys that submit anyway.
    pub sybils: usize,
    /// Ingest connections (frames per step).
    pub conns: usize,
    /// Transactions per frame.
    pub frame_txs: usize,
    /// Closed-loop steps.
    pub steps: usize,
    /// Virtual ms between steps.
    pub step_ms: u64,
    /// Steps between `Gateway::refresh` calls.
    pub refresh_every: usize,
    /// Transactions in the pre-built store (`read_trickle`).
    pub deep_txs: usize,
    /// One ingest frame every this many steps (1 = every step).
    pub tx_every: usize,
    /// Target approval capacity of the honest parent pool.
    pub pool_width: usize,
}

impl Params {
    /// The fixed shape of `workload` with `steps` closed-loop steps.
    pub fn for_workload(workload: Workload, steps: usize) -> Self {
        match workload {
            Workload::IngestBurst => Params {
                honest: 64,
                attackers: 0,
                sybils: 0,
                conns: 2,
                frame_txs: 256,
                steps,
                step_ms: 20,
                refresh_every: 1,
                deep_txs: 0,
                tx_every: 1,
                pool_width: 64,
            },
            Workload::AttackMix => Params {
                honest: 48,
                attackers: 16,
                sybils: 4,
                conns: 2,
                frame_txs: 64,
                steps,
                step_ms: 20,
                refresh_every: 1,
                deep_txs: 0,
                tx_every: 1,
                pool_width: 32,
            },
            Workload::ReadTrickle => Params {
                honest: 64,
                attackers: 0,
                sybils: 0,
                conns: 1,
                frame_txs: 1,
                steps,
                step_ms: 10,
                refresh_every: 100,
                deep_txs: 20_000,
                tx_every: 256,
                pool_width: 8,
            },
        }
    }
}

/// Who issued a transaction, for the PoW-cost asymmetry.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Class {
    /// An honest device.
    Honest = 0,
    /// An authorized device that misbehaves (any of its transactions).
    Attacker = 1,
    /// An unregistered key.
    Sybil = 2,
}

impl Class {
    fn from_u8(v: u8) -> Option<Self> {
        match v {
            0 => Some(Self::Honest),
            1 => Some(Self::Attacker),
            2 => Some(Self::Sybil),
            _ => None,
        }
    }
}

/// One pre-built submission and the twin's verdict on it.
#[derive(Clone, Debug, PartialEq)]
pub struct TxSpec {
    /// The signed, mined transaction.
    pub tx: Transaction,
    /// Issuer class.
    pub class: Class,
    /// PoW trials spent mining it.
    pub trials: u64,
    /// The twin's ack code (`AckCode as u8`).
    pub ack: u8,
}

/// One `SubmitBatch` frame on one ingest connection.
#[derive(Clone, Debug, PartialEq)]
pub struct FrameSpec {
    /// Index of the ingest connection it is written to.
    pub conn: u8,
    /// Its transactions, in order.
    pub txs: Vec<TxSpec>,
}

/// The endpoint a query exercises.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum QueryKind {
    /// `/v1/tx/{id}`.
    Tx = 0,
    /// `/v1/weight/{id}`.
    Weight = 1,
    /// `/v1/credit/{id}?at_ms=`.
    Credit = 2,
    /// `/v1/tips`.
    Tips = 3,
    /// `/v1/stats`.
    Stats = 4,
}

impl QueryKind {
    /// All kinds, in tag order.
    pub const ALL: [QueryKind; 5] = [
        QueryKind::Tx,
        QueryKind::Weight,
        QueryKind::Credit,
        QueryKind::Tips,
        QueryKind::Stats,
    ];

    /// Short name used in metric keys.
    pub fn name(self) -> &'static str {
        match self {
            QueryKind::Tx => "tx",
            QueryKind::Weight => "weight",
            QueryKind::Credit => "credit",
            QueryKind::Tips => "tips",
            QueryKind::Stats => "stats",
        }
    }

    fn from_u8(v: u8) -> Option<Self> {
        Self::ALL.into_iter().find(|k| *k as u8 == v)
    }
}

/// One HTTP GET.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct QuerySpec {
    /// Endpoint family.
    pub kind: QueryKind,
    /// Path component.
    pub path: String,
    /// Query string without `?` (may be empty).
    pub query: String,
}

/// One closed-loop step: at virtual instant `at_ms`, optionally refresh
/// the gateway, write every frame and the query, then wait for all acks,
/// for every accepted transaction to be visible at the archival node, and
/// for the response.
#[derive(Clone, Debug, PartialEq)]
pub struct StepSpec {
    /// Virtual instant of the step.
    pub at_ms: u64,
    /// Whether `Gateway::refresh` runs before the frames.
    pub refresh: bool,
    /// Frames, at most one per connection.
    pub frames: Vec<FrameSpec>,
    /// The query written this step, if any.
    pub query: Option<QuerySpec>,
}

/// The whole seeded input of one run plus the twin's expected outcome.
#[derive(Clone, Debug, PartialEq)]
pub struct Corpus {
    /// Which mix.
    pub workload: Workload,
    /// The seed it came from.
    pub seed: u64,
    /// Its shape.
    pub params: Params,
    /// The manager's public key (pinned at genesis).
    pub manager_pk: RsaPublicKey,
    /// Registered device keys: honest first, then attackers.
    pub device_pks: Vec<RsaPublicKey>,
    /// The manager-signed authorization list, attached at instant 0.
    pub auth_tx: Transaction,
    /// Pre-built history after genesis and the auth list, with attach
    /// instants (`read_trickle` only).
    pub deep: Vec<(Transaction, u64)>,
    /// The closed-loop schedule.
    pub steps: Vec<StepSpec>,
    /// Virtual instant after the last step; credit is compared here.
    pub end_ms: u64,
    /// The twin's tips, sorted.
    pub expect_tips: Vec<TxId>,
    /// SHA-256 over every (id, cumulative weight), ids sorted.
    pub expect_weights: [u8; 32],
    /// SHA-256 over every known device's credit breakdown at `end_ms`.
    pub expect_credit: [u8; 32],
}

/// Builds the gateway both the live validation node and the twin run:
/// credit-scaled difficulty, `seal_lag` on, outboxes on. With `history`
/// the gateway restores that tangle (genesis and auth list included);
/// otherwise it attaches genesis and applies the auth list at instant 0.
pub fn build_gateway(c: &Corpus, history: Option<Tangle>) -> Gateway {
    let mut gw = Gateway::new(
        c.manager_pk.clone(),
        Box::new(InverseProportionalPolicy::default()),
        GatewayConfig {
            record_broadcasts: true,
            record_credit_events: true,
            seal_lag: Some(SEAL_LAG),
            ..GatewayConfig::default()
        },
    );
    for pk in &c.device_pks {
        gw.register_pubkey(pk.clone());
    }
    match history {
        Some(t) => gw.restore(t, &[]),
        None => {
            gw.init_genesis(SimTime::ZERO);
            gw.apply_auth_list(c.auth_tx.clone(), SimTime::ZERO)
                .expect("the corpus auth list applies");
        }
    }
    gw
}

/// The pre-built history as a tangle: genesis, auth list, deep rows,
/// confirmed at the gateway's threshold and sealed as it grows (as a
/// gateway's `refresh` would), so the snapshot of it restores sealed.
pub fn deep_tangle(c: &Corpus) -> Tangle {
    let mut t = Tangle::new();
    t.attach_genesis(biot_core::identity::node_id_of(&c.manager_pk), 0);
    t.attach(c.auth_tx.clone(), 0)
        .expect("auth list attaches to genesis");
    for (i, (tx, at)) in c.deep.iter().enumerate() {
        t.attach(tx.clone(), *at)
            .expect("deep history is parent-closed");
        if i % 256 == 255 {
            t.confirm_with_threshold(GatewayConfig::default().confirmation_threshold);
            t.seal_frontier(SEAL_LAG);
        }
    }
    t
}

/// The ack code for a gateway outcome.
pub fn ack_code(r: &Result<TxId, SubmitError>) -> u8 {
    match r {
        Ok(_) => AckCode::Accepted as u8,
        Err(e) => AckCode::from_submit_error(e) as u8,
    }
}

/// Digest of every (id, cumulative weight), ids sorted.
pub fn weights_digest(t: &Tangle) -> [u8; 32] {
    let mut ids: Vec<TxId> = t.iter().map(Transaction::id).collect();
    ids.sort_unstable();
    let mut buf = Vec::with_capacity(ids.len() * 40);
    for id in ids {
        buf.extend_from_slice(&id.0);
        buf.extend_from_slice(&t.cumulative_weight(&id).to_be_bytes());
    }
    sha256(&buf)
}

/// Digest of every known device's (CrP, CrN, Cr) bit patterns at `at`.
pub fn credit_digest(ledger: &biot_credit::CreditLedger, at: u64) -> [u8; 32] {
    let mut nodes: Vec<NodeId> = ledger.known_nodes().copied().collect();
    nodes.sort_unstable_by_key(|n| n.0);
    let mut buf = Vec::new();
    for n in nodes {
        let c = ledger.credit_of(n, SimTime::from_millis(at));
        buf.extend_from_slice(&n.0);
        for v in [c.positive, c.negative, c.combined] {
            buf.extend_from_slice(&v.to_bits().to_be_bytes());
        }
    }
    sha256(&buf)
}

/// Parent bookkeeping for honest-looking transactions: recent accepted
/// transactions with fewer than two approvers (the lazy-tip policy's
/// limit), plus a list of recently filled ones that lazy attackers reuse.
#[derive(Default)]
struct Pool {
    open: Vec<(TxId, u8, u64)>,
    full: Vec<TxId>,
}

impl Pool {
    fn slots(&self) -> usize {
        self.open.iter().map(|e| 2 - e.1 as usize).sum()
    }

    fn expire(&mut self, now: u64) {
        let full = &mut self.full;
        self.open.retain(|e| {
            let fresh = e.2 + POOL_MAX_AGE_MS >= now;
            if !fresh {
                full.push(e.0);
            }
            fresh
        });
    }

    /// Two parents: distinct while the pool holds enough capacity, the
    /// same one twice (one approval slot) when it needs to widen.
    fn pick(&self, rng: &mut StdRng, width: usize) -> (TxId, TxId) {
        let n = self.open.len();
        assert!(n > 0, "parent pool ran dry");
        let a = rng.gen_range(0..n);
        if n < 2 || self.slots() < width {
            return (self.open[a].0, self.open[a].0);
        }
        let mut b = rng.gen_range(0..n - 1);
        if b >= a {
            b += 1;
        }
        (self.open[a].0, self.open[b].0)
    }

    /// Two parents that already have two approvers (stale to the lazy-tip
    /// policy); before any exist, falls back to [`Pool::pick`].
    fn pick_stale(&self, rng: &mut StdRng, width: usize) -> (TxId, TxId) {
        let tail = &self.full[self.full.len().saturating_sub(64)..];
        if tail.is_empty() {
            return self.pick(rng, width);
        }
        (
            tail[rng.gen_range(0..tail.len())],
            tail[rng.gen_range(0..tail.len())],
        )
    }

    fn accepted(&mut self, tx: &Transaction, at: u64) {
        let [p0, p1] = tx.parents();
        for (i, p) in [p0, p1].into_iter().enumerate() {
            if i == 1 && p1 == p0 {
                break;
            }
            if let Some(pos) = self.open.iter().position(|e| e.0 == p) {
                self.open[pos].1 += 1;
                if self.open[pos].1 >= 2 {
                    let e = self.open.swap_remove(pos);
                    self.full.push(e.0);
                }
            }
        }
        self.open.push((tx.id(), 0, at));
        if self.full.len() > 4096 {
            self.full.drain(..2048);
        }
    }

    /// Splits the open entries into `k` disjoint sub-pools, so frames
    /// written in the same step never share a parent and their order of
    /// admission cannot change a verdict.
    fn split(&mut self, k: usize) -> Vec<Pool> {
        let mut parts: Vec<Pool> = (0..k).map(|_| Pool::default()).collect();
        for (i, e) in self.open.drain(..).enumerate() {
            parts[i % k].open.push(e);
        }
        for p in &mut parts {
            p.full = self.full.clone();
        }
        parts
    }

    fn merge(&mut self, parts: Vec<Pool>) {
        let mut full = std::mem::take(&mut self.full);
        for p in parts {
            self.open.extend(p.open);
            let known = full.len();
            full.extend(p.full.into_iter().skip(known));
        }
        self.full = full;
    }
}

/// What one frame slot submits.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Act {
    Honest,
    Lazy,
    DoubleSpend,
    UnderPow,
    Forged,
    Sybil,
}

/// Generates the corpus for `(workload, seed, params)`. Deterministic: the
/// same arguments give a byte-identical [`Corpus::to_bytes`].
pub fn generate(workload: Workload, seed: u64, params: Params) -> Corpus {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed_b107_0000_0000 ^ workload.tag() as u64);
    let keys = keygen(seed, 1 + params.honest + params.attackers + params.sybils);
    let mut keys = keys.into_iter();
    let mut manager = Manager::new(keys.next().expect("manager key"));
    let devices: Vec<LightNode> = (0..params.honest + params.attackers)
        .map(|_| LightNode::new(keys.next().expect("key")))
        .collect();
    let sybils: Vec<LightNode> = keys.map(LightNode::new).collect();
    for d in &devices {
        let id = manager.register_device(d.public_key().clone());
        manager.authorize(id);
    }
    let genesis_issuer = manager.id();
    let genesis = {
        let mut t = Tangle::new();
        t.attach_genesis(genesis_issuer, 0)
    };
    let auth_tx = manager
        .prepare_auth_list((genesis, genesis), SimTime::ZERO, Difficulty::INITIAL)
        .tx;

    let mut corpus = Corpus {
        workload,
        seed,
        params,
        manager_pk: manager.public_key().clone(),
        device_pks: devices.iter().map(|d| d.public_key().clone()).collect(),
        auth_tx,
        deep: Vec::new(),
        steps: Vec::new(),
        end_ms: 0,
        expect_tips: Vec::new(),
        expect_weights: [0; 32],
        expect_credit: [0; 32],
    };

    let mut pool = Pool::default();
    pool.open.push((genesis, 1, 0));
    pool.open.push((corpus.auth_tx.id(), 0, 0));
    let mut start_ms = 1_000;
    if params.deep_txs > 0 {
        for i in 0..params.deep_txs {
            let at = 1 + i as u64;
            let (a, b) = pool.pick(&mut rng, params.pool_width);
            let d = rng.gen_range(0..params.honest);
            let tx = TransactionBuilder::new(devices[d].id())
                .parents(a, b)
                .payload(Payload::Data(reading(&mut rng, i as u64, d)))
                .timestamp_ms(at)
                .build();
            pool.accepted(&tx, at);
            corpus.deep.push((tx, at));
        }
        start_ms = params.deep_txs as u64 + 1_000;
    }
    let mut twin = if params.deep_txs > 0 {
        build_gateway(&corpus, Some(deep_tangle(&corpus)))
    } else {
        build_gateway(&corpus, None)
    };
    let deep_ids: Vec<TxId> = corpus.deep.iter().map(|(tx, _)| tx.id()).collect();
    // Accepted trickle transactions and the step they were accepted in.
    let mut recent: Vec<(TxId, usize, usize)> = Vec::new();
    let mut probe_target: Option<(TxId, NodeId)> = None;
    let mut seq = 0u64;

    for k in 0..params.steps {
        let at = start_ms + k as u64 * params.step_ms;
        let now = SimTime::from_millis(at);
        let refresh = k > 0 && k % params.refresh_every == 0;
        if refresh {
            twin.refresh(now);
        }
        pool.expire(at);
        let query = match workload {
            Workload::ReadTrickle => {
                Some(trickle_query(&mut rng, k, at, &deep_ids, &recent, &devices))
            }
            // One probe per step, rotating through every endpoint, about a
            // transaction (and its issuer) accepted the step before.
            _ => probe_target.map(
                |(id, issuer)| match QueryKind::ALL[k % QueryKind::ALL.len()] {
                    QueryKind::Credit => QuerySpec {
                        kind: QueryKind::Credit,
                        path: format!("/v1/credit/{}", hex(issuer.as_bytes())),
                        query: format!("at_ms={at}"),
                    },
                    QueryKind::Tips => QuerySpec {
                        kind: QueryKind::Tips,
                        path: "/v1/tips".into(),
                        query: String::new(),
                    },
                    QueryKind::Stats => QuerySpec {
                        kind: QueryKind::Stats,
                        path: "/v1/stats".into(),
                        query: String::new(),
                    },
                    kind => id_query(kind, id),
                },
            ),
        };
        let mut frames = Vec::new();
        if k % params.tx_every == 0 {
            let mut parts = pool.split(params.conns);
            for (conn, part) in parts.iter_mut().enumerate() {
                let per = params.honest / params.conns;
                let honest = conn * per..(conn + 1) * per;
                let per_a = params.attackers / params.conns;
                let attackers = params.honest + conn * per_a..params.honest + (conn + 1) * per_a;
                // Every attack_mix frame carries the same composition, at
                // seeded positions: one each of lazy tips, a double-spend
                // pair, under-mined PoW, a forged signature, a Sybil
                // submission and a valid attacker retry; the rest is honest.
                let mut slots = vec![(Act::Honest, false); params.frame_txs];
                if workload == Workload::AttackMix {
                    let attacks = [
                        (Act::Lazy, true),
                        (Act::DoubleSpend, true),
                        (Act::UnderPow, true),
                        (Act::Forged, true),
                        (Act::Sybil, false),
                        (Act::Honest, true),
                    ];
                    slots[..attacks.len()].copy_from_slice(&attacks);
                    for i in (1..slots.len()).rev() {
                        slots.swap(i, rng.gen_range(0..=i));
                    }
                }
                let mut txs = Vec::with_capacity(params.frame_txs);
                for (act, attacker) in slots {
                    seq += 1;
                    let (dev, class) = match act {
                        Act::Sybil => (None, Class::Sybil),
                        _ if attacker => (Some(rng.gen_range(attackers.clone())), Class::Attacker),
                        _ => (Some(rng.gen_range(honest.clone())), Class::Honest),
                    };
                    let specs = make_txs(
                        &mut rng,
                        &mut twin,
                        part,
                        &devices,
                        &sybils,
                        dev,
                        act,
                        class,
                        at,
                        seq,
                        params.pool_width,
                    );
                    for spec in specs {
                        if spec.ack == AckCode::Accepted as u8 {
                            part.accepted(&spec.tx, at);
                            if conn == 0 && spec.class == Class::Honest {
                                probe_target = Some((spec.tx.id(), spec.tx.issuer));
                            }
                            if workload == Workload::ReadTrickle {
                                let d = devices
                                    .iter()
                                    .position(|n| n.id() == spec.tx.issuer)
                                    .expect("trickle issuers are registered");
                                recent.push((spec.tx.id(), k, d));
                            }
                        }
                        txs.push(spec);
                    }
                }
                frames.push(FrameSpec {
                    conn: conn as u8,
                    txs,
                });
            }
            pool.merge(parts);
        }
        corpus.steps.push(StepSpec {
            at_ms: at,
            refresh,
            frames,
            query,
        });
        // The twin's outboxes are not read; keep them from growing.
        twin.take_broadcasts();
        twin.take_credit_events();
    }
    corpus.end_ms = start_ms + params.steps as u64 * params.step_ms;
    let t = twin.tangle();
    corpus.expect_tips = t.tips();
    corpus.expect_tips.sort_unstable();
    corpus.expect_weights = weights_digest(t);
    corpus.expect_credit = credit_digest(twin.credits(), corpus.end_ms);
    corpus
}

/// Builds, mines, signs and twin-submits the transaction(s) for one slot.
#[allow(clippy::too_many_arguments)]
fn make_txs(
    rng: &mut StdRng,
    twin: &mut Gateway,
    pool: &Pool,
    devices: &[LightNode],
    sybils: &[LightNode],
    dev: Option<usize>,
    act: Act,
    class: Class,
    at: u64,
    seq: u64,
    width: usize,
) -> Vec<TxSpec> {
    let now = SimTime::from_millis(at);
    let node = match dev {
        Some(d) => &devices[d],
        None => &sybils[rng.gen_range(0..sybils.len())],
    };
    let required = twin.difficulty_for(node.id(), now);
    let submit = |twin: &mut Gateway, tx: Transaction, trials: u64| {
        let r = twin.submit(tx.clone(), now);
        TxSpec {
            tx,
            class,
            trials,
            ack: ack_code(&r),
        }
    };
    match act {
        Act::Honest => {
            let p = node.prepare_payload(
                Payload::Data(reading(rng, seq, dev.unwrap_or(0))),
                pool.pick(rng, width),
                now,
                required,
            );
            vec![submit(twin, p.tx, p.trials)]
        }
        Act::Lazy => {
            let p = node.prepare_payload(
                Payload::Data(reading(rng, seq, dev.unwrap_or(0))),
                pool.pick_stale(rng, width),
                now,
                required,
            );
            vec![submit(twin, p.tx, p.trials)]
        }
        Act::DoubleSpend => {
            let mut token = [0u8; 32];
            rng.fill(&mut token[..]);
            let first = node.prepare_payload(
                Payload::Spend {
                    token,
                    to: devices[0].id(),
                },
                pool.pick(rng, width),
                now,
                required,
            );
            let a = submit(twin, first.tx, first.trials);
            let required = twin.difficulty_for(node.id(), now);
            let second = node.prepare_payload(
                Payload::Spend {
                    token,
                    to: devices[1].id(),
                },
                pool.pick(rng, width),
                now,
                required,
            );
            let b = submit(twin, second.tx, second.trials);
            vec![a, b]
        }
        Act::UnderPow => {
            let mut tx = TransactionBuilder::new(node.id())
                .parents(pool.pick(rng, width).0, pool.pick(rng, width).1)
                .payload(Payload::Data(reading(rng, seq, dev.unwrap_or(0))))
                .timestamp_ms(at)
                .build();
            let pre = tx.pow_preimage();
            let mut trials = 0;
            loop {
                trials += 1;
                if leading_zero_bits(&pow_hash(&pre, tx.nonce)) < required.bits() {
                    break;
                }
                tx.nonce += 1;
            }
            tx.signature = node.account().sign(&tx.signing_bytes());
            vec![submit(twin, tx, trials)]
        }
        Act::Forged => {
            let mut p = node.prepare_payload(
                Payload::Data(reading(rng, seq, dev.unwrap_or(0))),
                pool.pick(rng, width),
                now,
                Difficulty::MIN,
            );
            let last = p.tx.signature.len() - 1;
            p.tx.signature[last] ^= 0x5a;
            vec![submit(twin, p.tx, p.trials)]
        }
        Act::Sybil => {
            let p = node.prepare_payload(
                Payload::Data(reading(rng, seq, 0)),
                pool.pick(rng, width),
                now,
                Difficulty::MIN,
            );
            vec![submit(twin, p.tx, p.trials)]
        }
    }
}

fn reading(rng: &mut StdRng, seq: u64, device: usize) -> Vec<u8> {
    let mut out = Vec::with_capacity(28);
    out.extend_from_slice(&seq.to_be_bytes());
    out.extend_from_slice(&(device as u32).to_be_bytes());
    let mut noise = [0u8; 16];
    rng.fill(&mut noise[..]);
    out.extend_from_slice(&noise);
    out
}

fn id_query(kind: QueryKind, id: TxId) -> QuerySpec {
    let prefix = if kind == QueryKind::Tx {
        "/v1/tx/"
    } else {
        "/v1/weight/"
    };
    QuerySpec {
        kind,
        path: format!("{prefix}{}", hex(&id.0)),
        query: String::new(),
    }
}

/// The read mix: tx 30%, weight 25%, credit 20%, tips 10%, stats 15%.
/// Ids come from the deep history (70%) or from trickle transactions
/// accepted at least one step earlier; credit asks about devices whose
/// first trickle admission is at least two steps old.
fn trickle_query(
    rng: &mut StdRng,
    k: usize,
    at: u64,
    deep: &[TxId],
    recent: &[(TxId, usize, usize)],
    devices: &[LightNode],
) -> QuerySpec {
    let pick_id = |rng: &mut StdRng| {
        let old: Vec<&(TxId, usize, usize)> =
            recent.iter().rev().take(256).filter(|r| r.1 < k).collect();
        if old.is_empty() || rng.gen_range(0..10) < 7 {
            deep[rng.gen_range(0..deep.len())]
        } else {
            old[rng.gen_range(0..old.len())].0
        }
    };
    let r = rng.gen_range(0..100u32);
    match r {
        0..=29 => id_query(QueryKind::Tx, pick_id(rng)),
        30..=54 => id_query(QueryKind::Weight, pick_id(rng)),
        55..=74 => {
            let known: Vec<usize> = recent
                .iter()
                .filter(|r| r.1 + 2 <= k)
                .map(|r| r.2)
                .collect();
            if known.is_empty() {
                return id_query(QueryKind::Tx, pick_id(rng));
            }
            let d = known[rng.gen_range(0..known.len())];
            QuerySpec {
                kind: QueryKind::Credit,
                path: format!("/v1/credit/{}", hex(devices[d].id().as_bytes())),
                query: format!("at_ms={at}"),
            }
        }
        75..=84 => QuerySpec {
            kind: QueryKind::Tips,
            path: "/v1/tips".into(),
            query: String::new(),
        },
        _ => QuerySpec {
            kind: QueryKind::Stats,
            path: "/v1/stats".into(),
            query: String::new(),
        },
    }
}

/// Lowercase hex.
pub fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// Seeded RSA keys, generated on two threads; key `i` depends only on
/// `(seed, i)`, so the split does not change the result.
fn keygen(seed: u64, n: usize) -> Vec<Account> {
    let gen = |i: usize| {
        let mut rng =
            StdRng::seed_from_u64(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ (i as u64 + 1));
        Account::generate(&mut rng)
    };
    let mut out: Vec<Option<Account>> = (0..n).map(|_| None).collect();
    std::thread::scope(|s| {
        let (even, odd): (Vec<_>, Vec<_>) =
            out.iter_mut().enumerate().partition(|(i, _)| i % 2 == 0);
        for half in [even, odd] {
            s.spawn(move || {
                for (i, slot) in half {
                    *slot = Some(gen(i));
                }
            });
        }
    });
    out.into_iter()
        .map(|a| a.expect("every key generated"))
        .collect()
}

// --- Serialization -------------------------------------------------------

struct W(Vec<u8>);

impl W {
    fn u64(&mut self, v: u64) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    fn bytes(&mut self, b: &[u8]) {
        self.u64(b.len() as u64);
        self.0.extend_from_slice(b);
    }
    fn tx(&mut self, tx: &Transaction) {
        self.bytes(&encode_tx(tx));
    }
    fn pk(&mut self, pk: &RsaPublicKey) {
        self.bytes(&pk.modulus().to_bytes_be());
        self.bytes(&pk.exponent().to_bytes_be());
    }
}

struct R<'a>(&'a [u8]);

impl<'a> R<'a> {
    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        if self.0.len() < n {
            return None;
        }
        let (a, b) = self.0.split_at(n);
        self.0 = b;
        Some(a)
    }
    fn u64(&mut self) -> Option<u64> {
        Some(u64::from_le_bytes(self.take(8)?.try_into().ok()?))
    }
    fn usize(&mut self) -> Option<usize> {
        usize::try_from(self.u64()?).ok()
    }
    fn bytes(&mut self) -> Option<&'a [u8]> {
        let n = self.usize()?;
        self.take(n)
    }
    fn tx(&mut self) -> Option<Transaction> {
        decode_tx(self.bytes()?).ok()
    }
    fn pk(&mut self) -> Option<RsaPublicKey> {
        let n = BigUint::from_bytes_be(self.bytes()?);
        let e = BigUint::from_bytes_be(self.bytes()?);
        Some(RsaPublicKey::from_parts(n, e))
    }
    fn id(&mut self) -> Option<[u8; 32]> {
        self.take(32)?.try_into().ok()
    }
    fn string(&mut self) -> Option<String> {
        String::from_utf8(self.bytes()?.to_vec()).ok()
    }
}

impl Corpus {
    /// Canonical bytes (the cache format).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = W(MAGIC.to_vec());
        let p = &self.params;
        w.u64(self.workload.tag() as u64);
        w.u64(self.seed);
        for v in [
            p.honest,
            p.attackers,
            p.sybils,
            p.conns,
            p.frame_txs,
            p.steps,
            p.refresh_every,
            p.deep_txs,
            p.tx_every,
            p.pool_width,
        ] {
            w.u64(v as u64);
        }
        w.u64(p.step_ms);
        w.pk(&self.manager_pk);
        w.u64(self.device_pks.len() as u64);
        for pk in &self.device_pks {
            w.pk(pk);
        }
        w.tx(&self.auth_tx);
        w.u64(self.deep.len() as u64);
        for (tx, at) in &self.deep {
            w.tx(tx);
            w.u64(*at);
        }
        w.u64(self.steps.len() as u64);
        for s in &self.steps {
            w.u64(s.at_ms);
            w.u64(s.refresh as u64);
            w.u64(s.frames.len() as u64);
            for f in &s.frames {
                w.u64(f.conn as u64);
                w.u64(f.txs.len() as u64);
                for t in &f.txs {
                    w.tx(&t.tx);
                    w.u64(t.class as u64);
                    w.u64(t.trials);
                    w.u64(t.ack as u64);
                }
            }
            match &s.query {
                None => w.u64(0),
                Some(q) => {
                    w.u64(1 + q.kind as u64);
                    w.bytes(q.path.as_bytes());
                    w.bytes(q.query.as_bytes());
                }
            }
        }
        w.u64(self.end_ms);
        w.u64(self.expect_tips.len() as u64);
        for t in &self.expect_tips {
            w.0.extend_from_slice(&t.0);
        }
        w.0.extend_from_slice(&self.expect_weights);
        w.0.extend_from_slice(&self.expect_credit);
        w.0
    }

    /// Parses [`Corpus::to_bytes`]; `None` on any mismatch.
    pub fn from_bytes(bytes: &[u8]) -> Option<Corpus> {
        let mut r = R(bytes);
        if r.take(8)? != MAGIC {
            return None;
        }
        let workload = Workload::from_tag(u8::try_from(r.u64()?).ok()?)?;
        let seed = r.u64()?;
        let mut v = [0usize; 10];
        for x in &mut v {
            *x = r.usize()?;
        }
        let params = Params {
            honest: v[0],
            attackers: v[1],
            sybils: v[2],
            conns: v[3],
            frame_txs: v[4],
            steps: v[5],
            refresh_every: v[6],
            deep_txs: v[7],
            tx_every: v[8],
            pool_width: v[9],
            step_ms: r.u64()?,
        };
        let manager_pk = r.pk()?;
        let n = r.usize()?;
        let device_pks = (0..n).map(|_| r.pk()).collect::<Option<Vec<_>>>()?;
        let auth_tx = r.tx()?;
        let n = r.usize()?;
        let deep = (0..n)
            .map(|_| Some((r.tx()?, r.u64()?)))
            .collect::<Option<Vec<_>>>()?;
        let n = r.usize()?;
        let mut steps = Vec::with_capacity(n);
        for _ in 0..n {
            let at_ms = r.u64()?;
            let refresh = r.u64()? != 0;
            let nf = r.usize()?;
            let mut frames = Vec::with_capacity(nf);
            for _ in 0..nf {
                let conn = u8::try_from(r.u64()?).ok()?;
                let nt = r.usize()?;
                let txs = (0..nt)
                    .map(|_| {
                        Some(TxSpec {
                            tx: r.tx()?,
                            class: Class::from_u8(u8::try_from(r.u64()?).ok()?)?,
                            trials: r.u64()?,
                            ack: u8::try_from(r.u64()?).ok()?,
                        })
                    })
                    .collect::<Option<Vec<_>>>()?;
                frames.push(FrameSpec { conn, txs });
            }
            let query = match r.u64()? {
                0 => None,
                k => Some(QuerySpec {
                    kind: QueryKind::from_u8(u8::try_from(k - 1).ok()?)?,
                    path: r.string()?,
                    query: r.string()?,
                }),
            };
            steps.push(StepSpec {
                at_ms,
                refresh,
                frames,
                query,
            });
        }
        let end_ms = r.u64()?;
        let n = r.usize()?;
        let expect_tips = (0..n)
            .map(|_| r.id().map(TxId))
            .collect::<Option<Vec<_>>>()?;
        let expect_weights = r.id()?;
        let expect_credit = r.id()?;
        if !r.0.is_empty() {
            return None;
        }
        Some(Corpus {
            workload,
            seed,
            params,
            manager_pk,
            device_pks,
            auth_tx,
            deep,
            steps,
            end_ms,
            expect_tips,
            expect_weights,
            expect_credit,
        })
    }

    /// Loads the cached corpus under `dir`, or generates and caches it.
    /// Returns the corpus and whether it came from the cache.
    pub fn load_or_generate(
        dir: &Path,
        workload: Workload,
        seed: u64,
        params: Params,
    ) -> (Corpus, bool) {
        let path = dir.join(format!("{}-s{seed}-n{}.bin", workload.name(), params.steps));
        if let Ok(bytes) = std::fs::read(&path) {
            if let Some(c) = Corpus::from_bytes(&bytes) {
                if c.workload == workload && c.seed == seed && c.params == params {
                    return (c, true);
                }
            }
        }
        let c = generate(workload, seed, params);
        let _ = std::fs::create_dir_all(dir);
        let tmp = path.with_extension("tmp");
        if std::fs::write(&tmp, c.to_bytes()).is_ok() {
            let _ = std::fs::rename(&tmp, &path);
        }
        (c, false)
    }

    /// Every submitted transaction, in submission order.
    pub fn txs(&self) -> impl Iterator<Item = &TxSpec> {
        self.steps
            .iter()
            .flat_map(|s| s.frames.iter().flat_map(|f| f.txs.iter()))
    }

    /// Mean PoW trials per accepted transaction of `class` (0 if none).
    pub fn mean_trials(&self, class: Class) -> f64 {
        let (mut sum, mut n) = (0u64, 0u64);
        for t in self
            .txs()
            .filter(|t| t.class == class && t.ack == AckCode::Accepted as u8)
        {
            sum += t.trials;
            n += 1;
        }
        if n == 0 {
            0.0
        } else {
            sum as f64 / n as f64
        }
    }

    /// Registered device ids, honest first.
    pub fn device_ids(&self) -> Vec<NodeId> {
        self.device_pks
            .iter()
            .map(biot_core::identity::node_id_of)
            .collect()
    }

    /// Index of every submitted transaction id, for latency bookkeeping.
    pub fn tx_index(&self) -> HashMap<TxId, u32> {
        self.txs()
            .enumerate()
            .map(|(i, t)| (t.tx.id(), i as u32))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(workload: Workload) -> Params {
        let mut p = Params::for_workload(workload, 6);
        p.honest = 4;
        p.attackers = if workload == Workload::AttackMix {
            2
        } else {
            0
        };
        p.sybils = if workload == Workload::AttackMix {
            1
        } else {
            0
        };
        p.frame_txs = p.frame_txs.min(24);
        p.deep_txs = p.deep_txs.min(50);
        p.refresh_every = 3;
        p
    }

    #[test]
    fn same_seed_same_bytes_different_seed_differs() {
        for w in [
            Workload::IngestBurst,
            Workload::ReadTrickle,
            Workload::AttackMix,
        ] {
            let a = generate(w, 7, tiny(w));
            let b = generate(w, 7, tiny(w));
            let c = generate(w, 8, tiny(w));
            assert_eq!(a.to_bytes(), b.to_bytes(), "{w:?}: same seed, same corpus");
            assert_ne!(
                a.to_bytes(),
                c.to_bytes(),
                "{w:?}: another seed, another corpus"
            );
            let acks = |c: &Corpus| c.txs().map(|t| t.ack).collect::<Vec<_>>();
            assert_eq!(acks(&a), acks(&b), "{w:?}: same twin ack sequence");
            assert_eq!(
                Corpus::from_bytes(&a.to_bytes()).as_ref(),
                Some(&a),
                "{w:?}: round trip"
            );
        }
    }

    #[test]
    fn honest_transactions_are_all_accepted_and_attacks_are_refused() {
        for w in [Workload::IngestBurst, Workload::AttackMix] {
            let c = generate(w, 3, tiny(w));
            for t in c.txs().filter(|t| t.class == Class::Honest) {
                assert_eq!(t.ack, AckCode::Accepted as u8, "{w:?}: honest tx refused");
            }
            if w == Workload::AttackMix {
                assert!(
                    c.txs().any(|t| t.ack != AckCode::Accepted as u8),
                    "attacks refused"
                );
            }
        }
    }

    #[test]
    fn twin_replay_by_batches_matches_sequential_generation() {
        let c = generate(Workload::AttackMix, 5, tiny(Workload::AttackMix));
        let mut gw = build_gateway(&c, None);
        for s in &c.steps {
            let now = SimTime::from_millis(s.at_ms);
            if s.refresh {
                gw.refresh(now);
            }
            for f in &s.frames {
                let got = gw.submit_batch(f.txs.iter().map(|t| t.tx.clone()).collect(), now);
                let want: Vec<u8> = f.txs.iter().map(|t| t.ack).collect();
                assert_eq!(got.iter().map(ack_code).collect::<Vec<_>>(), want);
            }
        }
        assert_eq!(weights_digest(gw.tangle()), c.expect_weights);
    }
}
