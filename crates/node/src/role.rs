//! Role runtimes: which subsystems a B-IoT node actually starts.
//!
//! The paper's network is heterogeneous (§III): most participants are
//! constrained devices that only *issue*, a smaller set of full nodes
//! *validates* and polices credit, and somebody has to keep the whole
//! history and answer questions about it. This module names those three
//! shapes and composes the existing machinery into each:
//!
//! | Role | gossip | admission (gateway+ingest) | credit replay check | store | HTTP API |
//! |---|---|---|---|---|---|
//! | [`ArchivalNode`] | sync (cold or warm) | — | — | yes (snapshot boot) | yes |
//! | [`ValidationNode`] | sync + originate | yes | yes (hard error) | — | — |
//! | [`LightClient`] | — | submits to one | — | — | — |
//!
//! An **archival** node joins the mesh cold and pulls the whole ledger
//! from its peers (or snapshot-boots from its own `biot-store` directory,
//! which is faster — measured in `BENCH_api.json`), keeps syncing, and
//! serves the read-only [`crate::api`] endpoint. A **validation** node
//! wraps a [`Gateway`]: it admits light-client transactions through the
//! ingest protocol, emits the resulting credit events to the mesh, folds
//! the mesh's events back in, and can at any point *re-derive its entire
//! credit ledger from the event log* and demand the result match the
//! incrementally maintained one — [`ValidationNode::verify_replay`]
//! returns a hard error on the first divergent device. A **light**
//! client holds keys, mines, signs, and speaks the length-prefixed
//! ingest protocol; it never holds the DAG.

use crate::api::{ApiState, HealthInfo};
use crate::query::{QueryServer, QueryStats};
use biot_core::identity::Account;
use biot_core::node::{Gateway, LightNode, PreparedTx};
use biot_core::pow::Difficulty;
use biot_credit::{CreditEvent, CreditId, CreditLedger};
use biot_crypto::sha256::to_hex;
use biot_gossip::node::{GossipConfig, GossipNode};
use biot_ingest::protocol::{decode_server, encode_client, ClientMsg, ServerMsg};
use biot_ingest::{IngestConfig, IngestServer};
use biot_net::time::SimTime;
use biot_store::{LedgerStore, RecoveredState, StoreError};
use biot_tangle::tx::{IdentifiedTx, NodeId, Payload, Transaction, TxId};
use std::io;
use std::path::PathBuf;

/// Minimum of two optional deadlines (absolute ms) — `None` means "no
/// timed work", so it never wins.
fn min_deadline(a: Option<u64>, b: Option<u64>) -> Option<u64> {
    match (a, b) {
        (Some(a), Some(b)) => Some(a.min(b)),
        (x, None) | (None, x) => x,
    }
}

/// The three node shapes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Role {
    /// Full history + query API, no admission.
    Archival,
    /// Admission + credit policing, no query API.
    Validation,
    /// Keys + mining + submission only.
    Light,
}

impl Role {
    /// Stable lowercase name (also what `/v1/health` reports).
    pub fn name(self) -> &'static str {
        match self {
            Role::Archival => "archival",
            Role::Validation => "validation",
            Role::Light => "light",
        }
    }
}

/// What to start for one node. Role-irrelevant fields are ignored (a
/// light client has no gossip layer to configure).
#[derive(Debug)]
pub struct RoleConfig {
    /// Which shape to build.
    pub role: Role,
    /// Mesh settings (archival, validation).
    pub gossip: GossipConfig,
    /// Snapshot + WAL directory (archival; `None` = memory only).
    pub store_dir: Option<PathBuf>,
    /// HTTP bind address, e.g. `"127.0.0.1:0"` (archival; `None`
    /// disables the endpoint).
    pub http_addr: Option<String>,
    /// Ingest-protocol bind address (validation; `None` disables TCP
    /// admission — submissions still reach the gateway through
    /// [`ValidationNode::gateway_mut`]).
    pub ingest_addr: Option<String>,
    /// Ingest front-end knobs (used when `ingest_addr` is set).
    pub ingest: IngestConfig,
}

impl Default for RoleConfig {
    fn default() -> Self {
        Self {
            role: Role::Archival,
            gossip: GossipConfig::default(),
            store_dir: None,
            http_addr: None,
            ingest_addr: None,
            ingest: IngestConfig::default(),
        }
    }
}

/// Why an archival node failed to boot.
#[derive(Debug)]
pub enum ArchivalBootError {
    /// Store open/recovery failed.
    Store(StoreError),
    /// HTTP endpoint bind failed.
    Http(io::Error),
}

impl std::fmt::Display for ArchivalBootError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ArchivalBootError::Store(e) => write!(f, "store: {e}"),
            ArchivalBootError::Http(e) => write!(f, "http: {e}"),
        }
    }
}

impl std::error::Error for ArchivalBootError {}

/// How an archival node came up.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BootSource {
    /// Nothing on disk and no peers yet: empty tangle, waiting for the
    /// mesh's tips exchange to fill it.
    Cold,
    /// Recovered tangle + credit events from the store (snapshot plus
    /// WAL replay).
    Snapshot,
}

/// Archival role: gossip sync + durable store + the HTTP query API.
///
/// Drive [`ArchivalNode::poll`] from a loop; it gossips, folds credit
/// events, persists newly synced transactions, and answers HTTP.
pub struct ArchivalNode {
    gossip: GossipNode,
    credits: CreditLedger,
    store: Option<LedgerStore>,
    http: Option<QueryServer>,
    boot: BootSource,
    /// Transactions already appended to the store, as a cursor into the
    /// shared tangle's attach order.
    persisted: usize,
    /// Credit events (with their ids) applied since the last store
    /// commit, to be written with the wake's transactions.
    unpersisted_credit: Vec<(CreditId, CreditEvent)>,
    now_ms: u64,
}

impl std::fmt::Debug for ArchivalNode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ArchivalNode")
            .field("boot", &self.boot)
            .field("persisted", &self.persisted)
            .finish()
    }
}

impl ArchivalNode {
    /// Boots from the store when `cfg.store_dir` holds state (snapshot
    /// boot), else cold with an empty tangle that the mesh's tips
    /// exchange and parent pulls will fill.
    ///
    /// # Errors
    ///
    /// See [`ArchivalBootError`].
    pub fn new(cfg: RoleConfig) -> Result<Self, ArchivalBootError> {
        let mut boot = BootSource::Cold;
        let mut recovered = RecoveredState::default();
        let store = match cfg.store_dir {
            Some(dir) => {
                let store = LedgerStore::open(&dir).map_err(ArchivalBootError::Store)?;
                recovered = store.recover_full().map_err(ArchivalBootError::Store)?;
                if recovered.tangle.is_some() {
                    boot = BootSource::Snapshot;
                }
                Some(store)
            }
            None => None,
        };
        let credits = CreditLedger::from_merged_events(
            biot_credit::CreditParams::default(),
            &recovered.credit_events,
            recovered.credit_applied,
        );
        let mut gossip = match recovered.tangle {
            Some(tangle) => GossipNode::new(
                std::sync::Arc::new(std::sync::Mutex::new(tangle)),
                cfg.gossip,
            ),
            None => GossipNode::with_empty_tangle(cfg.gossip),
        };
        // Before any peer connects: nothing recovered is pulled again.
        gossip.seed_credit_watermarks(&recovered.credit_watermarks);
        let persisted = gossip.tangle().lock().unwrap().attach_order().len();
        let http = match cfg.http_addr {
            Some(addr) => {
                Some(QueryServer::bind(addr.as_str()).map_err(ArchivalBootError::Http)?)
            }
            None => None,
        };
        Ok(Self {
            gossip,
            credits,
            store,
            http,
            boot,
            persisted,
            unpersisted_credit: Vec::new(),
            now_ms: 0,
        })
    }

    /// How this node came up (snapshot vs cold) — the boot-time
    /// comparison `BENCH_api.json` reports.
    pub fn boot_source(&self) -> BootSource {
        self.boot
    }

    /// The gossip layer (to add transports/connectors).
    pub fn gossip_mut(&mut self) -> &mut GossipNode {
        &mut self.gossip
    }

    /// The gossip layer, read-only.
    pub fn gossip(&self) -> &GossipNode {
        &self.gossip
    }

    /// The credit projection folded from gossiped events.
    pub fn credits(&self) -> &CreditLedger {
        &self.credits
    }

    /// The durable store, when the node has one.
    pub fn store(&self) -> Option<&LedgerStore> {
        self.store.as_ref()
    }

    /// The HTTP endpoint's bound address, when one is serving.
    ///
    /// # Errors
    ///
    /// Propagates socket failures.
    pub fn http_addr(&self) -> io::Result<Option<std::net::SocketAddr>> {
        self.http.as_ref().map(|h| h.local_addr()).transpose()
    }

    /// The HTTP endpoint's counters, when one is serving.
    pub fn http_stats(&self) -> Option<QueryStats> {
        self.http.as_ref().map(QueryServer::stats)
    }

    /// One runtime tick: gossip, fold credit events, persist new
    /// transactions, answer HTTP. Returns how many HTTP requests were
    /// answered.
    ///
    /// Composes the three handlers an event loop dispatches
    /// individually — [`ArchivalNode::on_gossip`],
    /// [`ArchivalNode::on_persist`], [`ArchivalNode::on_http`] — in
    /// exactly that order, so one tick and one event-loop wake perform
    /// the same state transitions.
    ///
    /// # Errors
    ///
    /// Store append failures (disk full and kin); HTTP poller failures.
    pub fn poll(&mut self, now_ms: u64) -> Result<usize, ArchivalBootError> {
        self.on_gossip(now_ms)?;
        self.on_persist()?;
        self.on_http(now_ms)
    }

    /// Gossip handler: drive the mesh and fold fresh credit events into
    /// the ledger. The events wait for [`ArchivalNode::on_persist`], which
    /// makes them durable in the same commit as the wake's transactions.
    ///
    /// # Errors
    ///
    /// None today: the store is written by [`ArchivalNode::on_persist`].
    /// The `Result` keeps every handler's signature alike.
    pub fn on_gossip(&mut self, now_ms: u64) -> Result<(), ArchivalBootError> {
        self.now_ms = now_ms;
        self.gossip.poll(now_ms);
        self.fold_credit();
        Ok(())
    }

    /// Applies the gossiped credit events, keeping them for the next commit.
    fn fold_credit(&mut self) {
        let fresh = self.gossip.take_credit_events();
        for (_, ev) in &fresh {
            self.credits.apply(ev);
        }
        if self.store.is_some() {
            self.unpersisted_credit.extend(fresh);
        }
    }

    /// Persistence handler: the wake's group commit. Writes the credit
    /// events [`ArchivalNode::on_gossip`] folded since the last commit,
    /// then every transaction attached since then, in attach order, with
    /// one [`LedgerStore::write_records`]: one `sync_data` for the wake.
    /// The records are encoded straight from the tangle under its lock,
    /// which is held across the write; the node is single-threaded, so
    /// nothing waits on it. On error nothing is marked persisted, and the
    /// next wake writes the same records again.
    ///
    /// # Errors
    ///
    /// Store write failures (disk full and kin).
    pub fn on_persist(&mut self) -> Result<(), ArchivalBootError> {
        self.commit().map_err(ArchivalBootError::Store)
    }

    /// The body of [`ArchivalNode::on_persist`].
    fn commit(&mut self) -> Result<(), StoreError> {
        let Some(store) = &mut self.store else { return Ok(()) };
        let tangle = self.gossip.tangle().lock().unwrap();
        let order = tangle.attach_order();
        let fresh = order[self.persisted.min(order.len())..].iter().filter_map(|id| {
            Some((tangle.get(id)?, tangle.attach_time_ms(id)?))
        });
        store.write_records(&self.unpersisted_credit, fresh)?;
        self.persisted = order.len();
        self.unpersisted_credit.clear();
        Ok(())
    }

    /// HTTP handler: answer whatever requests are ready, without
    /// blocking. Returns how many were answered.
    ///
    /// # Errors
    ///
    /// HTTP poller failures.
    pub fn on_http(&mut self, now_ms: u64) -> Result<usize, ArchivalBootError> {
        self.now_ms = now_ms;
        let answered = match &mut self.http {
            Some(http) => {
                let tangle = self.gossip.tangle().lock().unwrap();
                let health = HealthInfo {
                    role: Role::Archival.name(),
                    ready_peers: self.gossip.ready_peers(),
                    credit_events: self.credits.events_applied(),
                    now_ms,
                };
                let state =
                    ApiState { tangle: &tangle, credits: &self.credits, health: &health };
                http.poll(&state, now_ms, 0)
                    .map_err(ArchivalBootError::Http)?
                    .answered
            }
            None => 0,
        };
        Ok(answered)
    }

    /// The HTTP endpoint's own pollable descriptor (its epoll fd), for
    /// an outer event loop to nest. `None` without an endpoint or where
    /// the platform has no epoll (scan-poller fallback).
    pub fn http_poller_fd(&self) -> Option<std::os::fd::RawFd> {
        self.http.as_ref().and_then(QueryServer::poller_fd)
    }

    /// Earliest absolute instant (ms) at which this node has timed work
    /// due — gossip timers, dial retries, the HTTP idle sweep. Socket
    /// readiness can always create work earlier.
    pub fn next_deadline(&self) -> Option<u64> {
        min_deadline(
            self.gossip.next_deadline(),
            self.http.as_ref().and_then(QueryServer::next_deadline),
        )
    }

    /// Checkpoints the store (snapshot + WAL reset) so the *next* boot is
    /// a snapshot boot. No-op without a store.
    ///
    /// # Errors
    ///
    /// Store failures.
    pub fn checkpoint(&mut self) -> Result<(), StoreError> {
        // First fold and commit: the watermarks must cover exactly the ledger.
        self.fold_credit();
        self.commit()?;
        if let Some(store) = &mut self.store {
            let tangle = self.gossip.tangle().lock().unwrap();
            store.checkpoint_with_credit(
                &tangle,
                &self.credits,
                &self.gossip.credit_watermarks(),
            )?;
        }
        Ok(())
    }

    /// Renders what the HTTP endpoint *would* answer for `req`, against
    /// the current state — the in-process oracle the fleet test compares
    /// socket bytes to.
    pub fn oracle_response(&self, req: &crate::http::Request) -> Vec<u8> {
        let tangle = self.gossip.tangle().lock().unwrap();
        let health = HealthInfo {
            role: Role::Archival.name(),
            ready_peers: self.gossip.ready_peers(),
            credit_events: self.credits.events_applied(),
            now_ms: self.now_ms,
        };
        let state = ApiState { tangle: &tangle, credits: &self.credits, health: &health };
        crate::api::render_http(&state, req)
    }
}

/// The first device whose replayed credit diverged from the live ledger.
#[derive(Clone, Debug, PartialEq)]
pub struct ReplayDivergence {
    /// The device whose breakdown disagrees.
    pub node: NodeId,
    /// `(CrP, CrN, Cr)` from the incrementally maintained ledger.
    pub live: (f64, f64, f64),
    /// `(CrP, CrN, Cr)` from the from-scratch event-log replay.
    pub replayed: (f64, f64, f64),
}

impl std::fmt::Display for ReplayDivergence {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "credit replay divergence for {}: live {:?} vs replayed {:?}",
            to_hex(self.node.as_bytes()),
            self.live,
            self.replayed
        )
    }
}

impl std::error::Error for ReplayDivergence {}

/// Validation role: a [`Gateway`] (authorization, signatures,
/// credit-scaled PoW) bridged onto the mesh, with an optional
/// ingest-protocol TCP front end for light clients, and an event log
/// retained for the replay cross-check.
pub struct ValidationNode {
    gateway: Gateway,
    gossip: GossipNode,
    ingest: Option<IngestServer>,
    /// Every credit event this node has ever applied: its own emissions
    /// plus everything folded in from the mesh, in application order.
    credit_log: Vec<CreditEvent>,
    /// Mesh transactions already mirrored into the gateway, as a cursor
    /// into the shared tangle's attach order.
    mirrored: usize,
}

impl std::fmt::Debug for ValidationNode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ValidationNode")
            .field("mirrored", &self.mirrored)
            .field("events", &self.credit_log.len())
            .finish()
    }
}

impl ValidationNode {
    /// Wraps a prepared gateway (genesis attached, device keys
    /// registered, **`record_broadcasts` and `record_credit_events`
    /// both on** — without them nothing reaches the mesh) and joins it
    /// to the mesh under `cfg.gossip`.
    ///
    /// # Errors
    ///
    /// Ingest listener bind failures.
    pub fn new(gateway: Gateway, cfg: RoleConfig) -> io::Result<Self> {
        let gossip = GossipNode::with_empty_tangle(cfg.gossip);
        let ingest = match cfg.ingest_addr {
            Some(addr) => Some(IngestServer::bind(addr.as_str(), cfg.ingest)?),
            None => None,
        };
        Ok(Self { gateway, gossip, ingest, credit_log: Vec::new(), mirrored: 0 })
    }

    /// The wrapped gateway.
    pub fn gateway(&self) -> &Gateway {
        &self.gateway
    }

    /// The wrapped gateway, mutable (tests inject submissions directly).
    pub fn gateway_mut(&mut self) -> &mut Gateway {
        &mut self.gateway
    }

    /// The gossip layer (to add transports/connectors).
    pub fn gossip_mut(&mut self) -> &mut GossipNode {
        &mut self.gossip
    }

    /// The gossip layer, read-only.
    pub fn gossip(&self) -> &GossipNode {
        &self.gossip
    }

    /// The ingest listener's bound address, when one is serving.
    ///
    /// # Errors
    ///
    /// Propagates socket failures.
    pub fn ingest_addr(&self) -> io::Result<Option<std::net::SocketAddr>> {
        self.ingest.as_ref().map(|s| s.local_addr()).transpose()
    }

    /// Every credit event applied so far, in application order.
    pub fn credit_log(&self) -> &[CreditEvent] {
        &self.credit_log
    }

    /// One runtime tick:
    ///
    /// 1. serve the ingest listener (admissions feed the gateway);
    /// 2. push the gateway's newly accepted transactions and credit
    ///    events onto the mesh;
    /// 3. gossip;
    /// 4. mirror mesh transactions into the gateway's tangle and fold
    ///    mesh credit events into its ledger.
    ///
    /// Composes the two handlers an event loop dispatches individually —
    /// [`ValidationNode::on_ingest`], [`ValidationNode::on_gossip`] — in
    /// exactly that order, so one tick and one event-loop wake perform
    /// the same state transitions.
    ///
    /// # Errors
    ///
    /// Ingest poller failures.
    pub fn poll(&mut self, now_ms: u64) -> io::Result<()> {
        self.on_ingest(now_ms)?;
        self.on_gossip(now_ms);
        Ok(())
    }

    /// Ingest handler: serve the admission listener, then bridge the
    /// gateway's newly accepted transactions and credit events onto the
    /// mesh (steps 1–2 of the tick).
    ///
    /// # Errors
    ///
    /// Ingest poller failures.
    pub fn on_ingest(&mut self, now_ms: u64) -> io::Result<()> {
        let now = SimTime::from_millis(now_ms);
        if let Some(ingest) = &mut self.ingest {
            ingest.poll(&mut self.gateway, now, 0)?;
        }
        // Locally admitted → mesh. `submit` (not `attach_local`) because
        // a mirrored mesh transaction may already hold the id.
        for tx in self.gateway.take_broadcasts() {
            self.gossip.submit(tx, now_ms, now_ms);
        }
        let own = self.gateway.take_credit_events();
        if !own.is_empty() {
            self.gossip.broadcast_credit_events(&own, now_ms);
            self.credit_log.extend(own);
        }
        Ok(())
    }

    /// Gossip handler: drive the mesh, mirror mesh transactions into the
    /// gateway's tangle, and fold mesh credit events into its ledger
    /// (steps 3–4 of the tick).
    pub fn on_gossip(&mut self, now_ms: u64) {
        let now = SimTime::from_millis(now_ms);
        self.gossip.poll(now_ms);
        // Mesh → gateway. The shared tangle's attach order is
        // parent-before-child, so mirroring in order always solidifies.
        // Own broadcasts come back around and are skipped by id; the rest
        // go over as handles with their ids, so both tangles share one
        // body and the gateway's attach hashes nothing.
        let (new_txs, order_len) = {
            let tangle = self.gossip.tangle().lock().unwrap();
            let order = tangle.attach_order();
            let new: Vec<IdentifiedTx> = order[self.mirrored.min(order.len())..]
                .iter()
                .filter(|id| !self.gateway.tangle().contains(id))
                .filter_map(|id| tangle.get_identified(id))
                .collect();
            (new, order.len())
        };
        for tx in new_txs {
            // A mesh transaction the gateway's ledger refuses (a double
            // spend it saw first) stays out of it, as on any replica.
            let _ = self.gateway.receive_broadcast(tx, now);
        }
        self.mirrored = order_len;
        let remote: Vec<CreditEvent> =
            self.gossip.take_credit_events().into_iter().map(|(_, ev)| ev).collect();
        if !remote.is_empty() {
            self.gateway.absorb_credit_events(&remote);
            self.credit_log.extend(remote);
        }
    }

    /// The ingest listener's own pollable descriptor (its epoll fd), for
    /// an outer event loop to nest. `None` without a listener or where
    /// the platform has no epoll (scan-poller fallback).
    pub fn ingest_poller_fd(&self) -> Option<std::os::fd::RawFd> {
        self.ingest.as_ref().and_then(IngestServer::poller_fd)
    }

    /// Earliest absolute instant (ms) at which this node has timed work
    /// due — gossip timers, dial retries, ingest backoffs and sweeps.
    /// Socket readiness can always create work earlier.
    pub fn next_deadline(&self, now_ms: u64) -> Option<u64> {
        min_deadline(
            self.gossip.next_deadline(),
            self.ingest
                .as_ref()
                .and_then(|i| i.next_deadline(SimTime::from_millis(now_ms))),
        )
    }

    /// The validation role's defining check: rebuild a credit ledger
    /// from nothing but the retained event log and demand it match the
    /// incrementally maintained one **exactly** — same devices, same
    /// `(CrP, CrN, Cr)` to the last bit, evaluated at `probe`.
    ///
    /// # Errors
    ///
    /// The first divergent device. Divergence means the live ledger and
    /// the event log disagree about history — a corrupted fold or a
    /// dropped event — and the node cannot be trusted to police credit.
    pub fn verify_replay(&self, probe: SimTime) -> Result<usize, ReplayDivergence> {
        let replayed = CreditLedger::from_events(
            *self.gateway.credits().params(),
            self.credit_log.iter(),
        );
        let live = self.gateway.credits();
        let mut devices = 0usize;
        let mut subjects: Vec<NodeId> = live.known_nodes().copied().collect();
        subjects.extend(replayed.known_nodes().copied());
        subjects.sort_unstable_by_key(|n| n.0);
        subjects.dedup();
        for node in subjects {
            let l = live.credit_of(node, probe);
            let r = replayed.credit_of(node, probe);
            if l.positive != r.positive || l.negative != r.negative || l.combined != r.combined
            {
                return Err(ReplayDivergence {
                    node,
                    live: (l.positive, l.negative, l.combined),
                    replayed: (r.positive, r.negative, r.combined),
                });
            }
            devices += 1;
        }
        Ok(devices)
    }
}

/// Light role: an account that mines and signs transactions and speaks
/// the ingest wire protocol. No DAG, no gossip, no ledger — tips and
/// difficulty come from whatever full node it talks to.
pub struct LightClient {
    node: LightNode,
    /// Transactions submitted (frames encoded) so far.
    submitted: u64,
}

impl std::fmt::Debug for LightClient {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LightClient")
            .field("id", &self.node.id().short_hex())
            .field("submitted", &self.submitted)
            .finish()
    }
}

impl LightClient {
    /// Wraps an account.
    pub fn new(account: Account) -> Self {
        Self { node: LightNode::new(account), submitted: 0 }
    }

    /// This client's identity (public-key fingerprint).
    pub fn id(&self) -> NodeId {
        self.node.id()
    }

    /// The public key a gateway must register before this client's
    /// submissions verify.
    pub fn public_key(&self) -> &biot_crypto::rsa::RsaPublicKey {
        self.node.public_key()
    }

    /// Builds, mines, and signs one data transaction on the given tips.
    pub fn prepare(
        &self,
        payload: Vec<u8>,
        tips: (TxId, TxId),
        now: SimTime,
        difficulty: Difficulty,
    ) -> PreparedTx {
        self.node.prepare_payload(Payload::Data(payload), tips, now, difficulty)
    }

    /// Encodes transactions as one length-prefixed `SubmitBatch` frame,
    /// ready to write to a validation node's ingest socket.
    pub fn encode_submit(&mut self, txs: Vec<Transaction>) -> Vec<u8> {
        self.submitted += txs.len() as u64;
        let body = encode_client(&ClientMsg::SubmitBatch(txs));
        let mut frame = Vec::with_capacity(4 + body.len());
        frame.extend_from_slice(&u32::try_from(body.len()).expect("frame fits u32").to_be_bytes());
        frame.extend_from_slice(&body);
        frame
    }

    /// Decodes a server ack frame *body* (length prefix already
    /// stripped).
    ///
    /// # Errors
    ///
    /// Malformed frames.
    pub fn decode_ack(frame: &[u8]) -> Result<ServerMsg, biot_ingest::ProtocolError> {
        decode_server(frame)
    }

    /// Transactions submitted so far.
    pub fn submitted(&self) -> u64 {
        self.submitted
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use biot_core::difficulty::FixedPolicy;
    use biot_core::node::{GatewayConfig, Manager};
    use biot_tangle::conflict::LazyTipPolicy;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::sync::Arc;

    fn test_gateway(seed: u64) -> (Gateway, Manager, Vec<LightClient>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut manager = Manager::new(Account::generate(&mut rng));
        let clients: Vec<LightClient> =
            (0..2).map(|_| LightClient::new(Account::generate(&mut rng))).collect();
        let (gateway, _) = Gateway::bootstrap(
            &mut manager,
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
            clients.iter().map(LightClient::public_key),
        );
        (gateway, manager, clients)
    }

    #[test]
    fn role_names_are_stable() {
        assert_eq!(Role::Archival.name(), "archival");
        assert_eq!(Role::Validation.name(), "validation");
        assert_eq!(Role::Light.name(), "light");
    }

    #[test]
    fn validation_replay_matches_live_ledger() {
        let (gateway, _manager, clients) = test_gateway(3);
        let mut node = ValidationNode::new(gateway, RoleConfig::default()).unwrap();
        let genesis = node.gateway().tangle().genesis().unwrap();
        let mut now_ms = 0;
        for round in 0..6u64 {
            for (c, client) in clients.iter().enumerate() {
                now_ms += 10;
                let prepared = client.prepare(
                    vec![round as u8, c as u8],
                    (genesis, genesis),
                    SimTime::from_millis(now_ms),
                    Difficulty::MIN,
                );
                node.gateway_mut()
                    .submit(prepared.tx, SimTime::from_millis(now_ms))
                    .unwrap();
            }
            node.poll(now_ms).unwrap();
        }
        assert!(!node.credit_log().is_empty(), "admissions emit credit events");
        let devices = node.verify_replay(SimTime::from_millis(now_ms + 1_000)).unwrap();
        assert!(devices >= 2, "both submitting devices have credit history");
    }

    #[test]
    fn validation_replay_detects_tampering() {
        let (gateway, _manager, clients) = test_gateway(4);
        let mut node = ValidationNode::new(gateway, RoleConfig::default()).unwrap();
        let genesis = node.gateway().tangle().genesis().unwrap();
        let prepared = clients[0].prepare(
            vec![1],
            (genesis, genesis),
            SimTime::from_millis(10),
            Difficulty::MIN,
        );
        node.gateway_mut().submit(prepared.tx, SimTime::from_millis(10)).unwrap();
        node.poll(10).unwrap();
        assert!(!node.credit_log.is_empty());
        node.verify_replay(SimTime::from_millis(20)).unwrap();
        // Forge an extra misbehavior into the log: the replayed ledger
        // now carries negative credit the live one never saw.
        node.credit_log.push(CreditEvent::misbehaved(
            clients[0].id(),
            biot_credit::Misbehavior::DoubleSpend,
            SimTime::from_millis(15),
        ));
        let err = node.verify_replay(SimTime::from_millis(20)).unwrap_err();
        assert_eq!(err.node, clients[0].id());
        assert_ne!(err.live, err.replayed);
    }

    #[test]
    fn mirror_skips_own_broadcasts_and_shares_mesh_bodies() {
        let (gateway, _manager, clients) = test_gateway(5);
        let mut node = ValidationNode::new(gateway, RoleConfig::default()).unwrap();
        let genesis = node.gateway().tangle().genesis().unwrap();
        let at = SimTime::from_millis(10);
        let own = clients[0].prepare(vec![1], (genesis, genesis), at, Difficulty::MIN);
        let own = node.gateway_mut().submit(own.tx, at).unwrap();
        node.poll(10).unwrap();
        let mesh_len = node.gossip().tangle().lock().unwrap().len();
        assert_eq!(mesh_len, node.gateway().tangle().len(), "own broadcasts reached the mesh");
        assert_eq!(node.gateway().stats().gossip_received, 0, "own broadcasts are not mirrored");

        let mesh_tx = biot_tangle::tx::TransactionBuilder::new(NodeId([9; 32]))
            .parents(genesis, own)
            .payload(Payload::Data(vec![2]))
            .timestamp_ms(20)
            .build();
        let mesh = mesh_tx.id();
        node.gossip_mut().submit(mesh_tx, 20, 20);
        node.poll(20).unwrap();
        assert_eq!(node.gateway().stats().gossip_received, 1, "a mesh transaction is mirrored");
        assert!(node.gateway().tangle().contains(&mesh));
        node.poll(30).unwrap();
        assert_eq!(node.gateway().stats().gossip_received, 1, "and mirrored once");

        // Both tangles hold one body per transaction, whichever side
        // attached it first.
        let gossip = node.gossip().tangle().lock().unwrap();
        for id in [own, mesh] {
            let (_, mesh_body) = gossip.get_identified(&id).unwrap().into_parts();
            let own = node.gateway().tangle().get_identified(&id).unwrap();
            let shared = Arc::ptr_eq(&mesh_body, &own.into_parts().1);
            assert!(shared, "{id:?} is stored twice");
        }
    }

    #[test]
    fn archival_cold_boot_then_snapshot_boot() {
        let dir = std::env::temp_dir()
            .join(format!("biot-node-role-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();

        // First life: cold boot, locally grown state, checkpoint.
        {
            let mut node = ArchivalNode::new(RoleConfig {
                store_dir: Some(dir.clone()),
                ..RoleConfig::default()
            })
            .unwrap();
            assert_eq!(node.boot_source(), BootSource::Cold);
            {
                let mut t = node.gossip_mut().tangle().lock().unwrap();
                let g = t.attach_genesis(NodeId([7; 32]), 0);
                let tx = biot_tangle::tx::TransactionBuilder::new(NodeId([1; 32]))
                    .parents(g, g)
                    .payload(Payload::Data(vec![1]))
                    .timestamp_ms(5)
                    .build();
                t.attach(tx, 5).unwrap();
            }
            node.poll(10).unwrap(); // persists the two transactions
            node.checkpoint().unwrap();
        }

        // Second life: the same directory snapshot-boots.
        let node = ArchivalNode::new(RoleConfig {
            store_dir: Some(dir.clone()),
            ..RoleConfig::default()
        })
        .unwrap();
        assert_eq!(node.boot_source(), BootSource::Snapshot);
        assert_eq!(node.gossip().tangle().lock().unwrap().len(), 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn light_client_frames_round_trip() {
        let mut rng = StdRng::seed_from_u64(9);
        let mut client = LightClient::new(Account::generate(&mut rng));
        let tips = (TxId([1; 32]), TxId([2; 32]));
        let tx = client
            .prepare(vec![42], tips, SimTime::from_millis(7), Difficulty::MIN)
            .tx;
        let id = tx.id();
        let frame = client.encode_submit(vec![tx]);
        assert_eq!(client.submitted(), 1);
        let body_len = u32::from_be_bytes(frame[..4].try_into().unwrap()) as usize;
        assert_eq!(body_len, frame.len() - 4);
        match biot_ingest::protocol::decode_client(&frame[4..]).unwrap() {
            ClientMsg::SubmitBatch(txs) => {
                assert_eq!(txs.len(), 1);
                assert_eq!(txs[0].id(), id);
            }
            other => panic!("unexpected {other:?}"),
        }
    }
}
