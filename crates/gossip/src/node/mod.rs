//! The gossip node: protocol logic over any [`Transport`].
//!
//! A [`GossipNode`] wraps a [`SharedTangle`] — its owner (a role runtime
//! or a simulator) keeps a second handle to the same tangle to read and
//! attach through — and keeps the replica converged with its peers:
//!
//! * **Broadcast** — locally attached transactions are pushed to one
//!   ready peer and digested to the rest; peers pull what they lack
//!   with `GetTxs` (see [`RelayMode`]).
//! * **Solidification** — transactions arriving before their parents wait
//!   in a bounded queue while the missing ancestors are requested; once a
//!   parent lands, every waiting descendant attaches in cascade. The
//!   queue evicts its oldest entry when full, so a hostile peer cannot
//!   balloon memory with orphans.
//! * **Anti-entropy** — a periodic `GetTips` exchange; any tip we do not
//!   hold is pulled, and its ancestor cone follows via solidification
//!   down to the genesis, so a cold-started node converges to an
//!   established peer's DAG. The
//!   same rotated peer gets this node's credit watermarks, and pulls
//!   whatever credit it lacks.
//! * **Credit relay** — credit events carry an `(origin, seq)` identity
//!   and travel by watermark advert and pull (see the `credit` module).
//! * **Reconnect** — outbound peers created with a [`Connector`] are
//!   redialed after a connection dies, with capped exponential backoff;
//!   after too many consecutive failures the peer is demoted to dead and
//!   left alone.
//!
//! Everything is driven by [`GossipNode::poll`] with an explicit
//! clock, so simulated deployments advance virtual time and tests are
//! fully deterministic; real deployments call it in a small sleep loop
//! (see `examples/gossip_sync.rs`).
//!
//! This file holds the node's state, public API, timers and frame pump;
//! the protocol halves live beside it: `peers` (peer table, handshake,
//! redial), `pex` (peer exchange), `relay` (transaction relay and the
//! seen cache), `credit` (per-origin credit logs and their relay) and
//! `solidify` (pending queue, parent pulls, anti-entropy).

mod credit;
mod peers;
mod pex;
mod relay;
mod solidify;
#[cfg(test)]
mod tests;

use crate::transport::{Connector, Dialer, Transport, TransportError};
use crate::wire::{decode_msg, encode_msg, Message};
use biot_credit::{CreditEvent, CreditId};
use biot_reactor::DeadlineQueue;
use biot_tangle::graph::{Tangle, TangleError};
use biot_tangle::tx::{IdentifiedTx, Transaction, TxId};
use credit::OriginLog;
use peers::{Conn, PeerSlot};
use rand::rngs::StdRng;
use rand::SeedableRng;
use relay::SeenCache;
use solidify::{PendingTx, Requested};
use std::collections::{BTreeMap, BTreeSet};
use std::os::fd::RawFd;
use std::sync::{Arc, Mutex, MutexGuard};

/// A tangle shared between its owner (gateway, simulator) and the gossip
/// layer.
pub type SharedTangle = Arc<Mutex<Tangle>>;

/// How freshly learned transactions are pushed onward to peers.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum RelayMode {
    /// Naive mesh flood: push the full `TxPayload` to every ready peer
    /// except the one it came from. The measured baseline a digest mesh
    /// is compared against — simple, fast, and wildly redundant.
    Flood,
    /// Wire-efficient mesh: transaction ids are coalesced into periodic
    /// [`Message::Digest`] frames per peer, capped at
    /// [`GossipConfig::fanout`] peers per transaction, skipping peers the
    /// seen-cache already knows hold it; receivers pull only what they
    /// lack with one [`Message::GetTxs`].
    #[default]
    Digest,
}

/// Tuning knobs for a [`GossipNode`].
#[derive(Clone, Debug)]
pub struct GossipConfig {
    /// How often to run anti-entropy, ms: a tips exchange with one
    /// rotated ready peer, plus retries of stale requests.
    pub anti_entropy_ms: u64,
    /// How often to send heartbeats, ms (`0` disables; a ready peer
    /// silent for 4× this interval is treated as dead).
    pub heartbeat_ms: u64,
    /// Max transactions waiting for parents; the oldest is evicted when
    /// the queue is full.
    pub max_pending: usize,
    /// Wait this long before re-requesting a transaction already asked
    /// for, ms.
    pub request_retry_ms: u64,
    /// First reconnect delay after a connection dies, ms.
    pub backoff_base_ms: u64,
    /// Reconnect delay ceiling, ms.
    pub backoff_max_ms: u64,
    /// Consecutive failures after which an outbound peer is demoted to
    /// dead (no further dials).
    pub max_connect_failures: u32,
    /// This node's identity on the mesh. `0` = anonymous (no
    /// self-connection or duplicate-link detection, and the node is
    /// never listed in peer exchange); nonzero ids enable all three.
    pub node_id: u64,
    /// Address this node accepts inbound connections at, gossiped to the
    /// fleet via handshakes and [`Message::PeerExchange`].
    pub listen_addr: Option<String>,
    /// How new transactions are relayed; see [`RelayMode`]. Defaults
    /// to [`RelayMode::Digest`].
    pub relay_mode: RelayMode,
    /// Max peers each transaction is digest-announced to (`0` = all
    /// eligible). Only used in [`RelayMode::Digest`].
    pub fanout: usize,
    /// How long buffered digest ids and credit watermark changes wait
    /// before the flush, ms (counted from the first enqueue into empty
    /// buffers).
    pub digest_ms: u64,
    /// How often a window of the known-peer list is gossiped to every
    /// ready peer, ms (`0` disables peer exchange entirely).
    pub peer_exchange_ms: u64,
    /// Reconnect backoff jitter, percent of the delay (`0` = exact
    /// exponential). Seeded from the node's RNG stream, so a partition
    /// heal spreads redials instead of thundering in lockstep — while
    /// two runs with the same seed still agree bit-for-bit.
    pub backoff_jitter_pct: u64,
    /// Seed for the node's deterministic RNG (jitter, fanout rotation);
    /// with `node_id` it also derives the node's credit origin id (see
    /// [`GossipNode::credit_origin`]).
    pub seed: u64,
}

impl Default for GossipConfig {
    fn default() -> Self {
        Self {
            anti_entropy_ms: 500,
            heartbeat_ms: 5_000,
            max_pending: 1_024,
            request_retry_ms: 500,
            backoff_base_ms: 100,
            backoff_max_ms: 10_000,
            max_connect_failures: 10,
            node_id: 0,
            listen_addr: None,
            relay_mode: RelayMode::Digest,
            fanout: 8,
            digest_ms: 150,
            peer_exchange_ms: 2_000,
            backoff_jitter_pct: 25,
            seed: 0,
        }
    }
}

/// Everything a gossip node has done, by outcome.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct GossipStats {
    /// Frames received (all kinds).
    pub frames_in: u64,
    /// Frames sent (all kinds).
    pub frames_out: u64,
    /// Transactions attached to the local tangle (local + remote).
    pub attached: u64,
    /// Transactions received that were already present.
    pub duplicates: u64,
    /// Transactions the tangle refused (double-spend etc.) or whose
    /// genesis could not be reproduced.
    pub rejected: u64,
    /// Solidification-queue entries dropped because the queue was full.
    pub evicted: u64,
    /// Items pulled from peers: tx ids asked for in `GetTxs` and origin
    /// ranges asked for in `GetCredit`.
    pub requests_sent: u64,
    /// Transaction payloads served to peers.
    pub tx_sent: u64,
    /// Handshakes completed.
    pub handshakes: u64,
    /// Connections lost (including failed dials).
    pub disconnects: u64,
    /// Frames that failed to decode (connection dropped on each).
    pub invalid_frames: u64,
    /// Frames skipped because the peer's send queue was full
    /// (backpressure); the link stays up and the repair paths — request
    /// retries, the tips exchange, credit watermarks — resend what
    /// matters.
    pub frames_shed: u64,
    /// Peers refused for version/genesis mismatch.
    pub incompatible: u64,
    /// Credit events served to peers in `CreditEvents` frames.
    pub credit_events_sent: u64,
    /// Credit events received from peers (before any inbox-cap drops).
    pub credit_events_received: u64,
    /// Credit events not applied — the inbox was full, or an unasked
    /// frame started past the watermark; the watermark stays put, so
    /// they are pulled again.
    pub credit_events_dropped: u64,
    /// Credit events discarded as already applied (seq below the
    /// origin's watermark).
    pub credit_events_deduped: u64,
    /// Credit events skipped because no peer that was asked still held
    /// them (a peer behind by more than an origin's log).
    pub credit_gaps: u64,
    /// `Digest` frames sent.
    pub digests_sent: u64,
    /// Transaction ids carried in sent digests.
    pub digest_ids_sent: u64,
    /// `PeerExchange` frames sent.
    pub peer_exchanges_sent: u64,
    /// Peer slots created from peer-exchange discoveries.
    pub peers_discovered: u64,
    /// Relay sends skipped because the target already held the payload.
    pub dup_suppressed: u64,
    /// `GetTx`/`GetTxs` ids requested of us that we did not hold.
    pub gettx_misses: u64,
    /// Payloads eagerly pushed to one fresh peer on attach (digest mode).
    pub eager_pushes: u64,
    /// `(origin, next)` watermarks advertised in `CreditVersions` frames.
    pub credit_versions_sent: u64,
    /// Frames discarded because a link that has not finished its
    /// handshake already buffered 256 of them.
    pub prehello_dropped: u64,
    /// Credit events or adverts of new origins refused because 1,024
    /// origins were already tracked (a hostile origin flood).
    pub credit_origins_refused: u64,
}

/// Where a peer slot currently stands.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PeerState {
    /// Connection up, handshake not yet complete.
    AwaitingHello,
    /// Handshake done; the peer takes part in gossip.
    Ready,
    /// No connection; a redial is scheduled.
    Backoff,
    /// No connection and no way to redial (inbound peer that hung up).
    Disconnected,
    /// Demoted after too many failures or an incompatibility; never
    /// redialed.
    Dead,
}

/// Introspection snapshot of one peer slot.
#[derive(Clone, Debug)]
pub struct PeerInfo {
    /// Current lifecycle state.
    pub state: PeerState,
    /// The peer's node id, once learned (`0` = unknown/anonymous).
    pub node_id: u64,
    /// Consecutive connection failures.
    pub failures: u32,
    /// Current reconnect delay, ms.
    pub backoff_ms: u64,
    /// When the next dial is allowed, ms.
    pub next_retry_ms: u64,
    /// Transport label (empty while disconnected).
    pub label: String,
}

/// The node's periodic work, each an explicit deadline in one
/// [`DeadlineQueue`]. The declaration order is the firing order within
/// one poll, so seeded runs stay bit-for-bit reproducible.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
enum GossipTimer {
    /// Tips exchange and credit watermarks with one rotated peer + stale
    /// re-requests ([`GossipConfig::anti_entropy_ms`]).
    AntiEntropy,
    /// Liveness heartbeats to every ready peer
    /// ([`GossipConfig::heartbeat_ms`]; unscheduled when 0).
    Heartbeat,
    /// Digest-mode flush of buffered tx ids and of the credit
    /// watermarks that moved. Armed
    /// [`GossipConfig::digest_ms`] out by the first enqueue into empty
    /// buffers and left unscheduled once it fires, so an idle node
    /// never wakes for it.
    DigestFlush,
    /// Peer-exchange gossip of the address book
    /// ([`GossipConfig::peer_exchange_ms`]; unscheduled when 0).
    PeerExchange,
}

/// Frame-processing budget per peer per poll.
const MAX_FRAMES_PER_POLL: u32 = 1_024;
/// Cap on buffered pre-handshake frames per connection.
const MAX_PREHELLO: usize = 256;

/// One replica's gossip endpoint. See the [module docs](self).
pub struct GossipNode {
    cfg: GossipConfig,
    tangle: SharedTangle,
    peers: Vec<PeerSlot>,
    pending: BTreeMap<TxId, PendingTx>,
    /// parent id → pending children waiting on it.
    waiters: BTreeMap<TxId, Vec<TxId>>,
    /// In-flight tx pulls: last send time + which peer was asked.
    requested: BTreeMap<TxId, Requested>,
    /// Credit events received from peers, with their identities,
    /// waiting for the owner to drain them into its ledger via
    /// [`take_credit_events`](Self::take_credit_events).
    credit_inbox: Vec<(CreditId, CreditEvent)>,
    /// Recently-seen tx ids, with holders.
    seen: SeenCache,
    /// node id → dial address, learned from handshakes + peer exchange.
    known_addrs: BTreeMap<u64, String>,
    /// Turns discovered addresses into live transports.
    dialer: Option<Box<dyn Dialer>>,
    /// This node's credit origin id (see [`GossipNode::credit_origin`]).
    origin: u64,
    /// One seq-ordered log per credit origin: the record of what this
    /// node has applied and can serve.
    credit: BTreeMap<u64, OriginLog>,
    /// Origins whose watermark moved since the last digest flush.
    credit_changed: BTreeSet<u64>,
    /// Deterministic stream for backoff jitter and fanout rotation.
    rng: StdRng,
    /// Rotating offset so digest fanout spreads over eligible peers.
    rr: usize,
    /// The periodic work, as explicit deadlines (see [`GossipTimer`]).
    timers: DeadlineQueue<GossipTimer>,
    pending_seq: u64,
    stats: GossipStats,
}

impl std::fmt::Debug for GossipNode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GossipNode")
            .field("peers", &self.peers.len())
            .field("pending", &self.pending.len())
            .field("stats", &self.stats)
            .finish()
    }
}

impl GossipNode {
    /// Creates a node over a shared tangle.
    pub fn new(tangle: SharedTangle, cfg: GossipConfig) -> Self {
        let rng = StdRng::seed_from_u64(
            cfg.seed ^ cfg.node_id.wrapping_mul(0x9E37_79B9_7F4A_7C15),
        );
        // Distinct for distinct (node id, seed) pairs below 2^32, and small
        // enough to stay a short varint in every WAL record.
        let origin = cfg.seed.rotate_left(32) ^ cfg.node_id;
        // Every enabled timer starts due at 0 so the first poll runs it
        // immediately.
        let mut timers = DeadlineQueue::new();
        timers.schedule(GossipTimer::AntiEntropy, 0);
        if cfg.heartbeat_ms > 0 {
            timers.schedule(GossipTimer::Heartbeat, 0);
        }
        if cfg.peer_exchange_ms > 0 {
            timers.schedule(GossipTimer::PeerExchange, 0);
        }
        Self {
            cfg,
            tangle,
            peers: Vec::new(),
            pending: BTreeMap::new(),
            waiters: BTreeMap::new(),
            requested: BTreeMap::new(),
            credit_inbox: Vec::new(),
            seen: SeenCache::new(),
            known_addrs: BTreeMap::new(),
            dialer: None,
            origin,
            credit: BTreeMap::new(),
            credit_changed: BTreeSet::new(),
            rng,
            rr: 0,
            timers,
            pending_seq: 0,
            stats: GossipStats::default(),
        }
    }

    /// Installs the dialer that turns peer-exchange addresses into live
    /// connections. Without one, discovered peers are remembered but
    /// never dialed.
    pub fn set_dialer(&mut self, dialer: Box<dyn Dialer>) {
        self.dialer = Some(dialer);
    }

    /// This node's mesh identity (`0` = anonymous).
    pub fn node_id(&self) -> u64 {
        self.cfg.node_id
    }

    /// Number of distinct peer addresses learned so far.
    pub fn known_addr_count(&self) -> usize {
        self.known_addrs.len()
    }

    /// Convenience: a node over a fresh empty tangle.
    pub fn with_empty_tangle(cfg: GossipConfig) -> Self {
        Self::new(Arc::new(Mutex::new(Tangle::new())), cfg)
    }

    /// The shared tangle handle.
    pub fn tangle(&self) -> &SharedTangle {
        &self.tangle
    }

    /// Counters so far.
    pub fn stats(&self) -> GossipStats {
        self.stats
    }

    /// Number of transactions waiting for parents.
    pub fn pending_len(&self) -> usize {
        self.pending.len()
    }

    /// Registers an outbound peer; the first dial happens on the next
    /// [`poll`](Self::poll). Returns the peer index.
    pub fn connect(&mut self, connector: Box<dyn Connector>) -> usize {
        self.peers.push(PeerSlot::new(None, Some(connector), None));
        self.peers.len() - 1
    }

    /// Registers an already-established connection (e.g. freshly
    /// accepted from a listener). Returns the peer index.
    pub fn add_transport(&mut self, transport: Box<dyn Transport>, now_ms: u64) -> usize {
        let conn = Conn::new(transport, false, now_ms);
        self.peers.push(PeerSlot::new(Some(conn), None, None));
        self.peers.len() - 1
    }

    /// Introspects one peer slot (panics if out of range).
    pub fn peer_info(&self, i: usize) -> PeerInfo {
        let slot = &self.peers[i];
        let state = if slot.dead {
            PeerState::Dead
        } else {
            match (&slot.conn, &slot.connector) {
                (Some(c), _) if c.ready => PeerState::Ready,
                (Some(_), _) => PeerState::AwaitingHello,
                (None, Some(_)) => PeerState::Backoff,
                (None, None) => PeerState::Disconnected,
            }
        };
        PeerInfo {
            state,
            node_id: slot.node_id,
            failures: slot.failures,
            backoff_ms: slot.backoff_ms,
            next_retry_ms: slot.next_retry_ms,
            label: slot.conn.as_ref().map(|c| c.transport.label()).unwrap_or_default(),
        }
    }

    /// Number of peers currently past the handshake.
    pub fn ready_peers(&self) -> usize {
        (0..self.peers.len()).filter(|&i| self.peer_ready(i)).count()
    }

    /// Attaches a locally produced transaction and relays it to the
    /// ready peers. Genesis transactions bootstrap the ledger.
    ///
    /// # Errors
    ///
    /// Propagates [`TangleError`] from the attach.
    pub fn attach_local(&mut self, tx: Transaction, now_ms: u64) -> Result<TxId, TangleError> {
        let id = {
            let mut t = self.lock_tangle();
            if tx.is_genesis() {
                if t.genesis().is_some() {
                    return Err(TangleError::Duplicate(tx.id()));
                }
                t.attach_genesis(tx.issuer, tx.timestamp_ms)
            } else {
                t.attach(tx, now_ms)?
            }
        };
        self.stats.attached += 1;
        self.seen.note(id.0, None);
        self.relay_tx(id, None, true, now_ms);
        self.resolve_waiters(id, now_ms);
        Ok(id)
    }

    /// Ingests a transaction handed in from outside the gossip layer
    /// (e.g. a simulated client submitting at this node). Unlike
    /// [`attach_local`](Self::attach_local) it tolerates missing parents:
    /// the transaction takes the same solidification path as one received
    /// from a peer, and is relayed onward once attached. Pass an
    /// [`IdentifiedTx`] (say, from the submitting gateway's outbox) and the
    /// gossip tangle shares that body and its id instead of storing a
    /// second copy and hashing it again.
    pub fn submit(&mut self, tx: impl Into<IdentifiedTx>, attach_ms: u64, now_ms: u64) {
        self.ingest(None, tx.into(), attach_ms, now_ms);
    }

    /// Drains credit events received from peers, with their identities.
    /// The owner applies them to its ledger (e.g.
    /// `Gateway::absorb_credit_events`) and persists the identities with
    /// them; each origin's events come in seq order, and every event
    /// comes exactly once.
    pub fn take_credit_events(&mut self) -> Vec<(CreditId, CreditEvent)> {
        std::mem::take(&mut self.credit_inbox)
    }

    /// Number of credit events waiting to be drained.
    pub fn credit_inbox_len(&self) -> usize {
        self.credit_inbox.len()
    }

    /// One protocol step at virtual (or wall) time `now_ms`: redial due
    /// peers, send handshakes, process inbound frames, run the due
    /// timers (anti-entropy, heartbeat, digest flush, peer exchange).
    pub fn poll(&mut self, now_ms: u64) {
        self.redial_due_peers(now_ms);
        for i in 0..self.peers.len() {
            self.service_peer(i, now_ms);
        }
        self.expire_silent_peers(now_ms);
        self.run_due_timers(now_ms);
    }

    /// Fires every due timer, in [`GossipTimer`] declaration order, then
    /// reschedules each periodic one interval out from *now* (not from
    /// its old deadline: a node woken late does not try to catch up).
    /// The digest flush is one-shot; the next enqueue re-arms it.
    fn run_due_timers(&mut self, now_ms: u64) {
        let due =
            |timers: &DeadlineQueue<GossipTimer>, t| timers.deadline_of(&t).is_some_and(|d| now_ms >= d);
        if due(&self.timers, GossipTimer::AntiEntropy) {
            self.timers.schedule(GossipTimer::AntiEntropy, now_ms + self.cfg.anti_entropy_ms);
            self.run_anti_entropy(now_ms);
        }
        if due(&self.timers, GossipTimer::Heartbeat) {
            self.timers.schedule(GossipTimer::Heartbeat, now_ms + self.cfg.heartbeat_ms);
            for i in 0..self.peers.len() {
                if self.peer_ready(i) {
                    self.send_to(i, &Message::Heartbeat(now_ms), now_ms);
                }
            }
        }
        if due(&self.timers, GossipTimer::DigestFlush) {
            self.timers.cancel(&GossipTimer::DigestFlush);
            self.flush_credit(now_ms);
            self.flush_digests(now_ms);
        }
        if due(&self.timers, GossipTimer::PeerExchange) {
            self.timers.schedule(GossipTimer::PeerExchange, now_ms + self.cfg.peer_exchange_ms);
            for i in 0..self.peers.len() {
                if self.peer_ready(i) {
                    self.send_peer_exchange_to(i, now_ms);
                }
            }
        }
    }

    /// The earliest instant at which [`poll`](Self::poll) has scheduled
    /// work: the next periodic timer or the next reconnect retry — or
    /// `Some(0)` when work is pending *right now* (an unsent handshake,
    /// or a transport holding a userspace-buffered frame a readiness
    /// poller would never re-report). An event loop sleeps until this
    /// deadline or socket readiness, whichever lands first; silence
    /// detection needs no entry of its own because the heartbeat timer
    /// (whose window it is measured in) already wakes the node often
    /// enough. `None` only when every timer is disabled and no peer is
    /// redialable.
    pub fn next_deadline(&self) -> Option<u64> {
        let mut next = self.timers.next_deadline();
        for slot in &self.peers {
            if slot.dead {
                continue;
            }
            if let Some(c) = &slot.conn {
                if !c.hello_sent || c.transport.has_pending_input() {
                    return Some(0);
                }
                continue;
            }
            let redialable =
                slot.connector.is_some() || (slot.addr.is_some() && self.dialer.is_some());
            if redialable {
                next = Some(next.map_or(slot.next_retry_ms, |n| n.min(slot.next_retry_ms)));
            }
        }
        next
    }

    /// Socket fds of every live peer transport, paired with whether the
    /// transport has unsent outbound bytes (write interest). In-memory
    /// transports report no fd and are skipped — an event loop drives
    /// those off [`next_deadline`](Self::next_deadline) alone.
    pub fn transport_fds(&self) -> Vec<(RawFd, bool)> {
        self.peers
            .iter()
            .filter_map(|s| s.conn.as_ref())
            .filter_map(|c| c.transport.raw_fd().map(|fd| (fd, c.transport.wants_write())))
            .collect()
    }

    /// The tangle, locked for one short read or attach.
    fn lock_tangle(&self) -> MutexGuard<'_, Tangle> {
        // Poisoned only if a holder (this node or the tangle's owner)
        // panicked mid-update: the tangle may be half-changed, so there
        // is nothing safe left to gossip and the panic propagates.
        self.tangle.lock().expect("tangle lock poisoned: a holder panicked mid-update")
    }

    // --- Frame pump ----------------------------------------------------------

    fn service_peer(&mut self, i: usize, now_ms: u64) {
        if self.peers[i].conn.as_ref().is_some_and(|c| !c.hello_sent) {
            let hello = self.build_hello();
            if self.send_to(i, &hello, now_ms) {
                if let Some(c) = self.peers[i].conn.as_mut() {
                    c.hello_sent = true;
                }
            }
        }
        for _ in 0..MAX_FRAMES_PER_POLL {
            let frame = match self.peers[i].conn.as_mut() {
                Some(c) => match c.transport.try_recv() {
                    Ok(Some(f)) => {
                        c.last_seen_ms = now_ms;
                        f
                    }
                    Ok(None) => return,
                    Err(_) => {
                        self.conn_lost(i, now_ms);
                        return;
                    }
                },
                None => return,
            };
            self.stats.frames_in += 1;
            match decode_msg(&frame) {
                Ok(msg) => self.handle_message(i, msg, now_ms),
                Err(_) => {
                    // A peer speaking garbage is desynced beyond repair on
                    // this connection; drop it and let backoff redial.
                    self.stats.invalid_frames += 1;
                    if let Some(c) = self.peers[i].conn.as_mut() {
                        c.transport.close();
                    }
                    self.conn_lost(i, now_ms);
                    return;
                }
            }
        }
    }

    /// Sends one frame to peer `i`. A full send queue sheds the frame
    /// and keeps the link (every frame kind has a repair path); any other
    /// error drops the link. Returns whether the frame went out.
    fn send_to(&mut self, i: usize, msg: &Message, now_ms: u64) -> bool {
        let frame = encode_msg(msg);
        let Some(c) = self.peers[i].conn.as_mut() else { return false };
        match c.transport.send(&frame) {
            Ok(()) => {
                self.stats.frames_out += 1;
                true
            }
            Err(TransportError::Backpressure { .. }) => {
                self.stats.frames_shed += 1;
                false
            }
            Err(_) => {
                self.conn_lost(i, now_ms);
                false
            }
        }
    }

    fn handle_message(&mut self, i: usize, msg: Message, now_ms: u64) {
        // Everything except the handshake itself waits for the handshake.
        if !self.peer_ready(i) && !matches!(msg, Message::Hello { .. }) {
            if let Some(c) = self.peers[i].conn.as_mut() {
                if c.prehello.len() < MAX_PREHELLO {
                    c.prehello.push(msg);
                } else {
                    self.stats.prehello_dropped += 1;
                }
            }
            return;
        }
        match msg {
            Message::Hello { version, node_id, genesis, listen_addr } => {
                self.handle_hello(i, version, node_id, genesis, listen_addr, now_ms);
            }
            Message::GetTxs(ids) => self.serve_txs(i, &ids, now_ms),
            Message::TxPayload { attach_ms, tx } => {
                self.ingest(Some(i), tx.into(), attach_ms, now_ms)
            }
            Message::GetTips => {
                let tips = self.tips();
                self.send_to(i, &tips, now_ms);
            }
            Message::Tips(ids) => {
                for id in ids {
                    self.seen.note(id.0, Some(i));
                    self.request_if_unknown(i, id, now_ms);
                }
            }
            Message::Heartbeat(_) => {} // last_seen already refreshed
            Message::CreditEvents { origin, first, events } => {
                self.handle_credit_events(i, origin, first, events, now_ms)
            }
            Message::PeerExchange(entries) => self.handle_peer_exchange(entries, now_ms),
            Message::Digest(ids) => self.handle_digest(i, ids, now_ms),
            Message::CreditVersions(entries) => self.handle_credit_versions(i, entries, now_ms),
            Message::GetCredit(entries) => self.serve_credit(i, entries, now_ms),
        }
    }
}
