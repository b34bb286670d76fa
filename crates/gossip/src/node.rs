//! The gossip node: protocol logic over any [`Transport`].
//!
//! A [`GossipNode`] wraps a shared [`Tangle`] (behind a mutex, so a
//! gateway thread and the gossip loop can both touch it) and keeps the
//! replica converged with its peers:
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
//!   hold is pulled, and its ancestor cone follows via solidification, so
//!   a cold-started node converges to an established peer's DAG.
//! * **Reconnect** — outbound peers created with a [`Connector`] are
//!   redialed after a connection dies, with capped exponential backoff;
//!   after too many consecutive failures the peer is demoted to dead and
//!   left alone.
//!
//! Everything is driven by [`GossipNode::poll`] with an explicit
//! clock, so simulated deployments advance virtual time and tests are
//! fully deterministic; real deployments call it in a small sleep loop
//! (see `examples/gossip_sync.rs`).

use crate::transport::{Connector, Dialer, Transport};
use crate::wire::{
    baseline_hash, decode_msg, encode_msg, Message, PeerEntry, MAX_IDS_PER_DIGEST,
    MAX_PEER_ENTRIES, PROTOCOL_VERSION,
};
use biot_credit::event::encode_event;
use biot_credit::CreditEvent;
use biot_crypto::sha256::sha256;
use biot_reactor::DeadlineQueue;
use biot_tangle::graph::{Tangle, TangleError};
use biot_tangle::tx::{Transaction, TxId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeMap, BTreeSet, HashMap, VecDeque};
use std::os::fd::RawFd;
use std::sync::{Arc, Mutex};

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
    /// How often to exchange tip sets with every ready peer, ms.
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
    /// Frame-processing budget per peer per poll.
    pub max_frames_per_poll: u32,
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
    /// Entries in the fixed-memory recently-seen cache (tx ids +
    /// credit-event checksums, with per-peer holder sets).
    pub seen_cache: usize,
    /// How long buffered digest ids and credit keys wait before the
    /// flush, ms (counted from the first enqueue into empty buffers).
    pub digest_ms: u64,
    /// How often the known-peer list is gossiped to every ready peer, ms
    /// (`0` disables peer exchange entirely).
    pub peer_exchange_ms: u64,
    /// Cap on outbound links (seed connectors + peers discovered via
    /// peer exchange); bounds the mesh degree.
    pub max_outbound: usize,
    /// Cap on remembered peer addresses and total peer slots.
    pub max_known_peers: usize,
    /// Entries per outbound [`Message::PeerExchange`] frame. Each
    /// exchange sends a rotating *window* of the address book rather
    /// than the whole book, so PEX wire cost stays constant as the
    /// fleet grows; successive exchanges cover the full book. Clamped
    /// to the wire cap ([`MAX_PEER_ENTRIES`]).
    pub pex_max_entries: usize,
    /// Reconnect backoff jitter, percent of the delay (`0` = exact
    /// exponential). Seeded from the node's RNG stream, so a partition
    /// heal spreads redials instead of thundering in lockstep — while
    /// two runs with the same seed still agree bit-for-bit.
    pub backoff_jitter_pct: u64,
    /// Seed for the node's deterministic RNG (jitter, fanout rotation).
    pub seed: u64,
    /// Credit events kept for replay to peers that handshake later
    /// (partition heal); oldest dropped past the cap.
    pub credit_replay: usize,
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
            max_frames_per_poll: 1_024,
            node_id: 0,
            listen_addr: None,
            relay_mode: RelayMode::Digest,
            fanout: 8,
            seen_cache: 65_536,
            digest_ms: 150,
            peer_exchange_ms: 2_000,
            max_outbound: 8,
            max_known_peers: 256,
            pex_max_entries: 16,
            backoff_jitter_pct: 25,
            seed: 0,
            credit_replay: 8_192,
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
    /// `GetTx` requests sent.
    pub requests_sent: u64,
    /// Transaction payloads served to peers.
    pub tx_sent: u64,
    /// Handshakes completed.
    pub handshakes: u64,
    /// Connections lost (including failed dials).
    pub disconnects: u64,
    /// Frames that failed to decode (connection dropped on each).
    pub invalid_frames: u64,
    /// Peers refused for version/genesis mismatch.
    pub incompatible: u64,
    /// Credit events broadcast to peers.
    pub credit_events_sent: u64,
    /// Credit events received from peers (before any inbox-cap drops).
    pub credit_events_received: u64,
    /// Credit events dropped because the inbox was full.
    pub credit_events_dropped: u64,
    /// Credit events discarded as already seen.
    pub credit_events_deduped: u64,
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
    /// Credit-event keys advertised in `CreditKeys` digest frames.
    pub credit_keys_sent: u64,
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

struct Conn {
    transport: Box<dyn Transport>,
    hello_sent: bool,
    ready: bool,
    /// True when this side dialed the connection (connector or dialer);
    /// false for accepted transports. The symmetric tie-break for
    /// duplicate links between two identified nodes keys off this.
    outbound: bool,
    /// Frames that arrived before the peer's Hello (possible under
    /// reordering transports); replayed once the handshake lands.
    prehello: Vec<Message>,
    last_seen_ms: u64,
}

struct PeerSlot {
    conn: Option<Conn>,
    connector: Option<Box<dyn Connector>>,
    /// Dial address for peers discovered via peer exchange (used with
    /// the node's [`Dialer`]).
    addr: Option<String>,
    /// Peer's node id (`0` until its Hello lands; pre-set for discovered
    /// peers).
    node_id: u64,
    /// Digest ids queued for this peer, flushed
    /// [`GossipConfig::digest_ms`] after the first enqueue.
    digest_buf: Vec<TxId>,
    /// Credit-event keys queued for this peer (digest relay mode),
    /// flushed on the same tick as [`Self::digest_buf`]. Holding them
    /// briefly lets the flush drop keys for events the peer turned out
    /// to hold already — the credit analogue of digest crossing
    /// suppression.
    credit_buf: Vec<[u8; 32]>,
    failures: u32,
    backoff_ms: u64,
    next_retry_ms: u64,
    dead: bool,
    /// Dead for protocol reasons (version/genesis mismatch); never
    /// resurrected by peer exchange.
    incompatible: bool,
}

/// Fixed-memory recently-seen cache: 32-byte keys (tx ids and
/// credit-event checksums) → the peer indices known to hold the item.
/// FIFO eviction keeps it bounded no matter how hostile the fleet.
struct SeenCache {
    cap: usize,
    map: HashMap<[u8; 32], Vec<u32>>,
    order: VecDeque<[u8; 32]>,
}

impl SeenCache {
    fn new(cap: usize) -> Self {
        Self { cap: cap.max(1), map: HashMap::new(), order: VecDeque::new() }
    }

    /// Marks `key` seen, optionally recording `holder` as a peer that
    /// has the item. Returns true when the key is new.
    fn note(&mut self, key: [u8; 32], holder: Option<usize>) -> bool {
        if let Some(holders) = self.map.get_mut(&key) {
            if let Some(h) = holder {
                let h = h as u32;
                if !holders.contains(&h) {
                    holders.push(h);
                }
            }
            return false;
        }
        while self.map.len() >= self.cap {
            match self.order.pop_front() {
                Some(old) => {
                    self.map.remove(&old);
                }
                None => break,
            }
        }
        self.map.insert(key, holder.map(|h| vec![h as u32]).unwrap_or_default());
        self.order.push_back(key);
        true
    }

    fn is_holder(&self, key: &[u8; 32], peer: usize) -> bool {
        self.map
            .get(key)
            .is_some_and(|holders| holders.contains(&(peer as u32)))
    }
}

/// Checksum identifying one credit event in the seen cache.
fn credit_key(ev: &CreditEvent) -> [u8; 32] {
    sha256(&encode_event(ev))
}

/// The node's periodic work, each an explicit deadline in one
/// [`DeadlineQueue`] instead of a private `next_*_ms` field compared
/// against `now` every tick. The declaration order is the firing order
/// within one poll (same order the old per-field checks ran in), so
/// seeded runs stay bit-for-bit reproducible.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
enum GossipTimer {
    /// Tips exchange with one rotated peer + stale re-requests
    /// ([`GossipConfig::anti_entropy_ms`]).
    AntiEntropy,
    /// Liveness heartbeats to every ready peer
    /// ([`GossipConfig::heartbeat_ms`]; unscheduled when 0).
    Heartbeat,
    /// Digest-mode flush of buffered tx ids and credit keys. Armed
    /// [`GossipConfig::digest_ms`] out by the first enqueue into empty
    /// buffers and left unscheduled once it fires, so an idle node
    /// never wakes for it.
    DigestFlush,
    /// Peer-exchange gossip of the address book
    /// ([`GossipConfig::peer_exchange_ms`]; unscheduled when 0).
    PeerExchange,
}

/// One in-flight `GetTx`/`GetTxs` request: when it was (last) sent and
/// which peer was asked, so a stale retry can rotate to a different peer.
struct Requested {
    at_ms: u64,
    peer: usize,
}

/// A transaction waiting for its parents.
struct PendingTx {
    tx: Transaction,
    attach_ms: u64,
    missing: BTreeSet<TxId>,
    /// Arrival order, for oldest-first eviction.
    seq: u64,
}

/// Cap on ids in one `Tips` frame (stays well under the frame limit).
const MAX_IDS_PER_TIPS: usize = 4_096;
/// Cap on buffered pre-handshake frames per connection.
const MAX_PREHELLO: usize = 256;
/// Credit events per `CreditEvents` frame (≤ ~50 B each, stays well
/// under the frame limit).
const CREDIT_EVENTS_PER_FRAME: usize = 512;
/// Cap on credit events waiting in the inbox for the owner to drain;
/// a hostile peer cannot balloon memory past this.
const MAX_CREDIT_INBOX: usize = 65_536;

/// One replica's gossip endpoint. See the [module docs](self).
pub struct GossipNode {
    cfg: GossipConfig,
    tangle: SharedTangle,
    peers: Vec<PeerSlot>,
    pending: BTreeMap<TxId, PendingTx>,
    /// parent id → pending children waiting on it.
    waiters: BTreeMap<TxId, Vec<TxId>>,
    /// In-flight `GetTx` requests: last send time + which peer was asked.
    requested: BTreeMap<TxId, Requested>,
    /// Credit events received from peers, waiting for the owner to
    /// drain them into its ledger via [`take_credit_events`](Self::take_credit_events).
    credit_inbox: Vec<CreditEvent>,
    /// Recently-seen tx ids and credit-event checksums, with holders.
    seen: SeenCache,
    /// node id → dial address, learned from handshakes + peer exchange.
    known_addrs: BTreeMap<u64, String>,
    /// Turns discovered addresses into live transports.
    dialer: Option<Box<dyn Dialer>>,
    /// Eviction order for the bounded credit-event store below.
    credit_replay: VecDeque<[u8; 32]>,
    /// Credit events this node holds, keyed by checksum: the source for
    /// handshake replay and for serving `GetCreditEvents` pulls.
    /// Holding a key here means "processed, can serve".
    credit_events_held: HashMap<[u8; 32], CreditEvent>,
    /// Outstanding `GetCreditEvents` pulls: key → last request time, so
    /// a lost answer is retried (from a different holder) after
    /// [`GossipConfig::request_retry_ms`].
    credit_requested: BTreeMap<[u8; 32], u64>,
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
        let seen = SeenCache::new(cfg.seen_cache);
        // Every enabled timer starts due at 0 so the first poll runs it
        // immediately, exactly like the old zero-initialized fields.
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
            seen,
            known_addrs: BTreeMap::new(),
            dialer: None,
            credit_replay: VecDeque::new(),
            credit_events_held: HashMap::new(),
            credit_requested: BTreeMap::new(),
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
        self.peers.push(PeerSlot {
            conn: None,
            connector: Some(connector),
            addr: None,
            node_id: 0,
            digest_buf: Vec::new(),
            credit_buf: Vec::new(),
            failures: 0,
            backoff_ms: 0,
            next_retry_ms: 0,
            dead: false,
            incompatible: false,
        });
        self.peers.len() - 1
    }

    /// Registers an already-established connection (e.g. freshly
    /// accepted from a listener). Returns the peer index.
    pub fn add_transport(&mut self, transport: Box<dyn Transport>, now_ms: u64) -> usize {
        self.peers.push(PeerSlot {
            conn: Some(Conn {
                transport,
                hello_sent: false,
                ready: false,
                outbound: false,
                prehello: Vec::new(),
                last_seen_ms: now_ms,
            }),
            connector: None,
            addr: None,
            node_id: 0,
            digest_buf: Vec::new(),
            credit_buf: Vec::new(),
            failures: 0,
            backoff_ms: 0,
            next_retry_ms: 0,
            dead: false,
            incompatible: false,
        });
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
        self.peers
            .iter()
            .filter(|s| s.conn.as_ref().is_some_and(|c| c.ready))
            .count()
    }

    /// Attaches a locally produced transaction and relays it to the
    /// ready peers. Genesis transactions bootstrap the ledger.
    ///
    /// # Errors
    ///
    /// Propagates [`TangleError`] from the attach.
    pub fn attach_local(&mut self, tx: Transaction, now_ms: u64) -> Result<TxId, TangleError> {
        let id = {
            let mut t = self.tangle.lock().unwrap();
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
    /// from a peer, and is relayed onward once attached.
    pub fn submit(&mut self, tx: Transaction, attach_ms: u64, now_ms: u64) {
        self.ingest(None, tx, attach_ms, now_ms);
    }

    /// Broadcasts locally observed credit events to the mesh. Events are
    /// evidence, not state: receivers fold them into their own
    /// [`biot_credit::CreditLedger`]. Each event is deduped by checksum
    /// and kept in the replay store, so a peer whose handshake is still
    /// in flight gets it from the handshake replay instead.
    pub fn broadcast_credit_events(&mut self, events: &[CreditEvent], now_ms: u64) {
        if events.is_empty() {
            return;
        }
        // Dedup by checksum, remember for replay, and skip peers already
        // known to hold an event.
        let mut fresh: Vec<(CreditEvent, [u8; 32])> = Vec::new();
        for ev in events {
            let key = credit_key(ev);
            let novel = self.seen.note(key, None);
            if self.credit_processed(&key, novel) {
                continue;
            }
            self.push_replay(*ev, key);
            fresh.push((*ev, key));
        }
        self.relay_credit(&fresh, None, now_ms);
    }

    /// Relays fresh credit events: full payloads immediately in flood
    /// mode (the naive baseline); in digest mode only their 32-byte
    /// *keys* are queued, to a bounded fanout of peers, and ride the
    /// next digest flush as a `CreditKeys` frame — receivers pull the
    /// events they lack, so each ~90-byte payload crosses each link at
    /// most once while the cheap keys do the spreading.
    fn relay_credit(
        &mut self,
        fresh: &[(CreditEvent, [u8; 32])],
        except: Option<usize>,
        now_ms: u64,
    ) {
        if self.cfg.relay_mode == RelayMode::Flood {
            self.send_credit_to_nonholders(fresh, except, now_ms);
            return;
        }
        for (_, key) in fresh {
            self.credit_enqueue(*key, except, now_ms);
        }
    }

    /// Queues a credit-event key for the next digest flush, to every
    /// eligible peer — ready, not the source, and not already known to
    /// hold the event. Unlike tx digests, credit keys are NOT
    /// fanout-bounded: the credit path has no tips-exchange repair, so
    /// a node skipped by every neighbor's fanout subset would be
    /// stranded forever — and at 32 bytes a key, full-degree spread
    /// costs a few B/node/tx while the ~90-byte payloads still cross
    /// each link at most once via the pull.
    fn credit_enqueue(&mut self, key: [u8; 32], except: Option<usize>, now_ms: u64) {
        for i in 0..self.peers.len() {
            if Some(i) == except || !self.peer_ready(i) {
                continue;
            }
            if self.seen.is_holder(&key, i) {
                self.stats.dup_suppressed += 1;
                continue;
            }
            self.peers[i].credit_buf.push(key);
            self.arm_flush(now_ms);
        }
    }

    /// Schedules the digest flush [`GossipConfig::digest_ms`] out unless
    /// it is already pending: the first enqueue into empty buffers
    /// starts the window, later ones ride it.
    fn arm_flush(&mut self, now_ms: u64) {
        if self.timers.deadline_of(&GossipTimer::DigestFlush).is_none() {
            self.timers
                .schedule(GossipTimer::DigestFlush, now_ms + self.cfg.digest_ms.max(1));
        }
    }

    /// Sends `fresh` events to every ready peer (minus `except`) that is
    /// not already a known holder, then records each recipient as one.
    fn send_credit_to_nonholders(
        &mut self,
        fresh: &[(CreditEvent, [u8; 32])],
        except: Option<usize>,
        now_ms: u64,
    ) {
        if fresh.is_empty() {
            return;
        }
        for i in 0..self.peers.len() {
            if Some(i) == except || !self.peer_ready(i) {
                continue;
            }
            let batch: Vec<&(CreditEvent, [u8; 32])> = fresh
                .iter()
                .filter(|(_, key)| !self.seen.is_holder(key, i))
                .collect();
            if batch.is_empty() {
                continue;
            }
            let events: Vec<CreditEvent> = batch.iter().map(|(ev, _)| *ev).collect();
            let keys: Vec<[u8; 32]> = batch.iter().map(|(_, key)| *key).collect();
            let mut all_sent = true;
            for chunk in events.chunks(CREDIT_EVENTS_PER_FRAME) {
                if self.send_to(i, &Message::CreditEvents(chunk.to_vec()), now_ms) {
                    self.stats.credit_events_sent += chunk.len() as u64;
                } else {
                    all_sent = false;
                    break;
                }
            }
            if all_sent {
                for key in keys {
                    self.seen.note(key, Some(i));
                }
            }
        }
    }

    /// Has this node already processed the credit event behind `key`?
    /// Seen-cache novelty alone cannot answer this: a `CreditKeys`
    /// advert inserts the key *before* the event arrives, and the
    /// pulled payload must not then be mistaken for a duplicate. The
    /// replay store is the record of processed events; only when replay
    /// is disabled (no store to consult) does novelty decide.
    fn credit_processed(&self, key: &[u8; 32], novel: bool) -> bool {
        if self.cfg.credit_replay > 0 {
            self.credit_events_held.contains_key(key)
        } else {
            !novel
        }
    }

    fn push_replay(&mut self, ev: CreditEvent, key: [u8; 32]) {
        if self.cfg.credit_replay == 0 || self.credit_events_held.contains_key(&key) {
            return;
        }
        while self.credit_replay.len() >= self.cfg.credit_replay {
            match self.credit_replay.pop_front() {
                Some(old) => {
                    self.credit_events_held.remove(&old);
                }
                None => break,
            }
        }
        self.credit_replay.push_back(key);
        self.credit_events_held.insert(key, ev);
    }

    /// Drains credit events received from peers. The owner applies them
    /// to its ledger (e.g. `Gateway::absorb_credit_events`); events are
    /// in arrival order, which the ledger accepts out-of-order anyway.
    pub fn take_credit_events(&mut self) -> Vec<CreditEvent> {
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

    /// Fires every due timer, in [`GossipTimer`] declaration order —
    /// the same sequence the old per-field checks ran in — then
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

    // --- Connection lifecycle ------------------------------------------------

    fn redial_due_peers(&mut self, now_ms: u64) {
        for i in 0..self.peers.len() {
            {
                let slot = &self.peers[i];
                if slot.dead || slot.conn.is_some() || now_ms < slot.next_retry_ms {
                    continue;
                }
                if slot.connector.is_none() && slot.addr.is_none() {
                    continue;
                }
            }
            let dialed = if self.peers[i].connector.is_some() {
                self.peers[i].connector.as_mut().expect("checked").connect()
            } else {
                let addr = self.peers[i].addr.clone().expect("checked");
                match self.dialer.as_mut() {
                    Some(d) => d.dial(&addr),
                    None => continue,
                }
            };
            match dialed {
                Ok(transport) => {
                    self.peers[i].conn = Some(Conn {
                        transport,
                        hello_sent: false,
                        ready: false,
                        outbound: true,
                        prehello: Vec::new(),
                        last_seen_ms: now_ms,
                    });
                }
                Err(_) => self.record_failure(i, now_ms),
            }
        }
    }

    /// Books one connection failure: exponential backoff with seeded
    /// ±jitter, capped; demote to dead past the limit.
    fn record_failure(&mut self, i: usize, now_ms: u64) {
        let cfg_base = self.cfg.backoff_base_ms.max(1);
        self.peers[i].failures += 1;
        self.stats.disconnects += 1;
        let failures = self.peers[i].failures;
        let shift = (failures - 1).min(20);
        let mut backoff = cfg_base
            .saturating_mul(1u64 << shift)
            .min(self.cfg.backoff_max_ms);
        if self.cfg.backoff_jitter_pct > 0 {
            // Drawn from the node's own seeded stream: deterministic per
            // run, but different nodes (different seeds) spread out — a
            // partition heal doesn't redial in lockstep.
            let spread = backoff * self.cfg.backoff_jitter_pct / 100;
            if spread > 0 {
                backoff = (backoff - spread + self.rng.gen_range(0..=2 * spread)).max(1);
            }
        }
        let slot = &mut self.peers[i];
        slot.backoff_ms = backoff;
        slot.next_retry_ms = now_ms + backoff;
        let redialable = slot.connector.is_some() || slot.addr.is_some();
        if failures > self.cfg.max_connect_failures && redialable {
            // Outbound: demote after too many strikes. Inbound: nothing to
            // redial, the slot just goes quiet (not dead — the peer may
            // accept a fresh inbound connection any time).
            slot.dead = true;
        }
    }

    fn conn_lost(&mut self, i: usize, now_ms: u64) {
        self.peers[i].conn = None;
        self.record_failure(i, now_ms);
    }

    /// Drops a peer permanently (wrong protocol version / wrong ledger).
    fn demote_incompatible(&mut self, i: usize) {
        if let Some(mut c) = self.peers[i].conn.take() {
            c.transport.close();
        }
        self.peers[i].dead = true;
        self.peers[i].incompatible = true;
        self.stats.incompatible += 1;
    }

    fn peer_ready(&self, i: usize) -> bool {
        self.peers[i].conn.as_ref().is_some_and(|c| c.ready)
    }

    /// Ready peers silent past the liveness window are treated as lost.
    fn expire_silent_peers(&mut self, now_ms: u64) {
        if self.cfg.heartbeat_ms == 0 {
            return;
        }
        let window = self.cfg.heartbeat_ms.saturating_mul(4);
        for i in 0..self.peers.len() {
            let stale = self.peers[i]
                .conn
                .as_ref()
                .is_some_and(|c| c.ready && now_ms.saturating_sub(c.last_seen_ms) > window);
            if stale {
                self.conn_lost(i, now_ms);
            }
        }
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
        for _ in 0..self.cfg.max_frames_per_poll {
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

    fn build_hello(&self) -> Message {
        let (genesis, pruned) = {
            let t = self.tangle.lock().unwrap();
            (t.genesis(), t.pruned_ids())
        };
        Message::Hello {
            version: PROTOCOL_VERSION,
            node_id: self.cfg.node_id,
            genesis,
            baseline: baseline_hash(genesis, &pruned),
            listen_addr: self.cfg.listen_addr.clone(),
        }
    }

    /// True while this replica has nothing at all — it then bootstraps
    /// from a peer's baseline instead of a tip exchange.
    fn is_cold(&self) -> bool {
        let t = self.tangle.lock().unwrap();
        t.genesis().is_none() && t.is_empty()
    }

    fn send_to(&mut self, i: usize, msg: &Message, now_ms: u64) -> bool {
        let frame = encode_msg(msg);
        let Some(c) = self.peers[i].conn.as_mut() else { return false };
        match c.transport.send(&frame) {
            Ok(()) => {
                self.stats.frames_out += 1;
                true
            }
            Err(_) => {
                self.conn_lost(i, now_ms);
                false
            }
        }
    }

    /// Pushes a freshly attached transaction onward, per the configured
    /// relay mode. `local` marks transactions this node originated
    /// (attach_local), which digest mode eager-pushes.
    fn relay_tx(&mut self, id: TxId, from: Option<usize>, local: bool, now_ms: u64) {
        match self.cfg.relay_mode {
            RelayMode::Flood => self.flood_payload(id, from, now_ms),
            RelayMode::Digest => {
                // Eager/lazy split: the ORIGIN pushes the full payload
                // to one peer immediately — the first hop pays no
                // digest-flush + pull round trip — while batched id
                // digests spread the rest. Relayed attaches stay lazy:
                // with only local holder knowledge, eager-pushing at
                // every hop mostly re-sends payloads peers already
                // pulled, costing more wire than the pulls it saves.
                if local {
                    self.eager_push_one(id, from, now_ms);
                }
                self.digest_enqueue(id, from, now_ms);
            }
        }
    }

    /// Pushes the payload of `id` to one ready peer not known to hold it
    /// (and not its source), marking the target a holder on success.
    fn eager_push_one(&mut self, id: TxId, except: Option<usize>, now_ms: u64) {
        let eligible: Vec<usize> = (0..self.peers.len())
            .filter(|&i| {
                Some(i) != except && self.peer_ready(i) && !self.seen.is_holder(&id.0, i)
            })
            .collect();
        if eligible.is_empty() {
            return;
        }
        self.rr = self.rr.wrapping_add(1);
        let target = eligible[self.rr % eligible.len()];
        let found = {
            let t = self.tangle.lock().unwrap();
            t.get(&id)
                .map(|tx| (tx.clone(), t.attach_time_ms(&id).unwrap_or(0)))
        };
        let Some((tx, attach_ms)) = found else { return };
        if self.send_to(target, &Message::TxPayload { attach_ms, tx }, now_ms) {
            self.stats.tx_sent += 1;
            self.stats.eager_pushes += 1;
            self.seen.note(id.0, Some(target));
        }
    }

    /// Naive flood: the full payload to every ready peer except its
    /// source. The baseline a digest mesh is measured against.
    fn flood_payload(&mut self, id: TxId, except: Option<usize>, now_ms: u64) {
        let found = {
            let t = self.tangle.lock().unwrap();
            t.get(&id)
                .map(|tx| (tx.clone(), t.attach_time_ms(&id).unwrap_or(0)))
        };
        let Some((tx, attach_ms)) = found else { return };
        for i in 0..self.peers.len() {
            if Some(i) == except || !self.peer_ready(i) {
                continue;
            }
            let msg = Message::TxPayload { attach_ms, tx: tx.clone() };
            if self.send_to(i, &msg, now_ms) {
                self.stats.tx_sent += 1;
            }
        }
    }

    /// Queues `id` for the next digest flush, to at most
    /// [`GossipConfig::fanout`] eligible peers — ready, not the source,
    /// and not already known to hold it.
    fn digest_enqueue(&mut self, id: TxId, except: Option<usize>, now_ms: u64) {
        let mut eligible: Vec<usize> = Vec::new();
        for i in 0..self.peers.len() {
            if Some(i) == except || !self.peer_ready(i) {
                continue;
            }
            if self.seen.is_holder(&id.0, i) {
                self.stats.dup_suppressed += 1;
                continue;
            }
            eligible.push(i);
        }
        if eligible.is_empty() {
            return;
        }
        let take = if self.cfg.fanout == 0 {
            eligible.len()
        } else {
            self.cfg.fanout.min(eligible.len())
        };
        self.rr = self.rr.wrapping_add(1);
        let start = self.rr % eligible.len();
        for k in 0..take {
            let i = eligible[(start + k) % eligible.len()];
            self.peers[i].digest_buf.push(id);
        }
        self.arm_flush(now_ms);
    }

    /// Sends every peer's buffered digest ids, chunked under the frame
    /// cap. Buffers for unready peers are discarded — the tips exchange
    /// at (re)handshake covers anything they missed.
    fn flush_digests(&mut self, now_ms: u64) {
        self.flush_credit_bufs(now_ms);
        for i in 0..self.peers.len() {
            if self.peers[i].digest_buf.is_empty() {
                continue;
            }
            if !self.peer_ready(i) {
                self.peers[i].digest_buf.clear();
                continue;
            }
            let mut buf = std::mem::take(&mut self.peers[i].digest_buf);
            // Holder knowledge may have improved since enqueue (the
            // peer's own digest of the same id crossed ours inside the
            // flush window — common while a tx wave is mid-mesh): drop
            // anything the peer is now known to hold.
            buf.retain(|id| {
                let held = self.seen.is_holder(&id.0, i);
                if held {
                    self.stats.dup_suppressed += 1;
                }
                !held
            });
            for chunk in buf.chunks(MAX_IDS_PER_DIGEST) {
                if self.send_to(i, &Message::Digest(chunk.to_vec()), now_ms) {
                    self.stats.digests_sent += 1;
                    self.stats.digest_ids_sent += chunk.len() as u64;
                } else {
                    break;
                }
            }
        }
    }

    /// Sends each peer's buffered credit-event keys as a `CreditKeys`
    /// digest, dropping keys the peer is now known to hold (its own
    /// digest of the same event crossed ours inside the flush window).
    /// Buffers for unready peers are discarded — the handshake replay
    /// covers whatever they missed.
    fn flush_credit_bufs(&mut self, now_ms: u64) {
        for i in 0..self.peers.len() {
            if self.peers[i].credit_buf.is_empty() {
                continue;
            }
            if !self.peer_ready(i) {
                self.peers[i].credit_buf.clear();
                continue;
            }
            let mut buf = std::mem::take(&mut self.peers[i].credit_buf);
            buf.retain(|key| {
                let held = self.seen.is_holder(key, i);
                if held {
                    self.stats.dup_suppressed += 1;
                }
                !held
            });
            for chunk in buf.chunks(MAX_IDS_PER_DIGEST) {
                if self.send_to(i, &Message::CreditKeys(chunk.to_vec()), now_ms) {
                    self.stats.credit_keys_sent += chunk.len() as u64;
                } else {
                    break;
                }
            }
        }
    }

    // --- Message handling ----------------------------------------------------

    fn handle_message(&mut self, i: usize, msg: Message, now_ms: u64) {
        // Everything except the handshake itself waits for the handshake.
        if !self.peer_ready(i) && !matches!(msg, Message::Hello { .. }) {
            if let Some(c) = self.peers[i].conn.as_mut() {
                if c.prehello.len() < MAX_PREHELLO {
                    c.prehello.push(msg);
                }
            }
            return;
        }
        match msg {
            Message::Hello { version, node_id, genesis, baseline: _, listen_addr } => {
                self.handle_hello(i, version, node_id, genesis, listen_addr, now_ms);
            }
            Message::GetTx(id) => {
                let found = {
                    let t = self.tangle.lock().unwrap();
                    t.get(&id)
                        .map(|tx| (tx.clone(), t.attach_time_ms(&id).unwrap_or(0)))
                };
                if let Some((tx, attach_ms)) = found {
                    self.stats.tx_sent += 1;
                    if self.send_to(i, &Message::TxPayload { attach_ms, tx }, now_ms) {
                        // The requester holds it once this lands — no
                        // need to ever digest it back at them.
                        self.seen.note(id.0, Some(i));
                    }
                } else {
                    self.stats.gettx_misses += 1;
                }
            }
            Message::TxPayload { attach_ms, tx } => {
                self.ingest(Some(i), tx, attach_ms, now_ms);
            }
            Message::GetTips => {
                let tips: Vec<TxId> = {
                    let tangle = self.tangle.lock().unwrap();
                    tangle.tips_iter().take(MAX_IDS_PER_TIPS).collect()
                };
                self.send_to(i, &Message::Tips(tips), now_ms);
            }
            Message::Tips(ids) => {
                for id in ids {
                    self.seen.note(id.0, Some(i));
                    self.request_if_unknown(i, id, now_ms);
                }
            }
            Message::Heartbeat(_) => {} // last_seen already refreshed
            Message::GetBaseline => {
                let (genesis, pruned) = {
                    let t = self.tangle.lock().unwrap();
                    let genesis = t.genesis().and_then(|g| {
                        t.get(&g)
                            .map(|tx| (t.attach_time_ms(&g).unwrap_or(0), tx.clone()))
                    });
                    (genesis, t.pruned_ids())
                };
                self.send_to(i, &Message::Baseline { genesis, pruned }, now_ms);
            }
            Message::Baseline { genesis, pruned } => {
                self.handle_baseline(i, genesis, pruned, now_ms);
            }
            Message::CreditEvents(events) => {
                self.stats.credit_events_received += events.len() as u64;
                // Exactly-once per node. The credit ledger
                // merges same-instant weights by accumulation, so a
                // duplicate delivery would corrupt credit — dedup by
                // checksum is load-bearing, not an optimization.
                let mut fresh: Vec<(CreditEvent, [u8; 32])> = Vec::new();
                for ev in events {
                    let key = credit_key(&ev);
                    self.credit_requested.remove(&key);
                    let novel = self.seen.note(key, Some(i));
                    if self.credit_processed(&key, novel) {
                        self.stats.credit_events_deduped += 1;
                    } else {
                        fresh.push((ev, key));
                    }
                }
                let room = MAX_CREDIT_INBOX.saturating_sub(self.credit_inbox.len());
                let taken = fresh.len().min(room);
                self.stats.credit_events_dropped += (fresh.len() - taken) as u64;
                for (ev, _) in fresh.iter().take(taken) {
                    self.credit_inbox.push(*ev);
                }
                for (ev, key) in &fresh {
                    self.push_replay(*ev, *key);
                }
                self.relay_credit(&fresh, Some(i), now_ms);
            }
            Message::PeerExchange(entries) => {
                self.handle_peer_exchange(entries, now_ms);
            }
            Message::Digest(ids) => {
                self.handle_digest(i, ids, now_ms);
            }
            Message::CreditKeys(keys) => {
                self.handle_credit_keys(i, keys, now_ms);
            }
            Message::GetCreditEvents(keys) => {
                self.serve_credit_events(i, keys, now_ms);
            }
            Message::GetTxs(ids) => {
                for id in ids {
                    let found = {
                        let t = self.tangle.lock().unwrap();
                        t.get(&id)
                            .map(|tx| (tx.clone(), t.attach_time_ms(&id).unwrap_or(0)))
                    };
                    if let Some((tx, attach_ms)) = found {
                        self.stats.tx_sent += 1;
                        if self.send_to(i, &Message::TxPayload { attach_ms, tx }, now_ms) {
                            self.seen.note(id.0, Some(i));
                        }
                    } else {
                        self.stats.gettx_misses += 1;
                    }
                }
            }
        }
    }

    /// A digest of ids the sender holds: record it as a holder of each,
    /// then pull only what we lack with one batched request.
    fn handle_digest(&mut self, i: usize, ids: Vec<TxId>, now_ms: u64) {
        let mut want: Vec<TxId> = Vec::new();
        for id in ids {
            self.seen.note(id.0, Some(i));
            let known = {
                let t = self.tangle.lock().unwrap();
                t.contains(&id) || t.is_pruned(&id)
            };
            if known || self.pending.contains_key(&id) || !self.request_due(&id, now_ms) {
                continue;
            }
            self.requested.insert(id, Requested { at_ms: now_ms, peer: i });
            want.push(id);
        }
        if want.is_empty() {
            return;
        }
        self.stats.requests_sent += want.len() as u64;
        for chunk in want.chunks(MAX_IDS_PER_DIGEST) {
            self.send_to(i, &Message::GetTxs(chunk.to_vec()), now_ms);
        }
    }

    /// A digest of credit-event keys the sender holds: record it as a
    /// holder of each, then pull only the events we lack with one
    /// batched request — the credit analogue of
    /// [`handle_digest`](Self::handle_digest).
    fn handle_credit_keys(&mut self, i: usize, keys: Vec<[u8; 32]>, now_ms: u64) {
        let mut want: Vec<[u8; 32]> = Vec::new();
        for key in keys {
            self.seen.note(key, Some(i));
            if self.credit_events_held.contains_key(&key)
                || !self.credit_request_due(&key, now_ms)
            {
                continue;
            }
            if self.credit_requested.len() >= MAX_CREDIT_INBOX
                && !self.credit_requested.contains_key(&key)
            {
                continue; // hostile key flood: stop tracking new pulls
            }
            self.credit_requested.insert(key, now_ms);
            want.push(key);
        }
        if want.is_empty() {
            return;
        }
        self.stats.requests_sent += want.len() as u64;
        for chunk in want.chunks(MAX_IDS_PER_DIGEST) {
            self.send_to(i, &Message::GetCreditEvents(chunk.to_vec()), now_ms);
        }
    }

    fn credit_request_due(&self, key: &[u8; 32], now_ms: u64) -> bool {
        match self.credit_requested.get(key) {
            None => true,
            Some(&at) => now_ms.saturating_sub(at) >= self.cfg.request_retry_ms,
        }
    }

    /// Serves a batched credit-event pull from the replay store,
    /// marking the requester a holder of everything sent. Unknown keys
    /// (evicted, or never held) are silently skipped — the requester's
    /// retry rotates to another holder.
    fn serve_credit_events(&mut self, i: usize, keys: Vec<[u8; 32]>, now_ms: u64) {
        let batch: Vec<(CreditEvent, [u8; 32])> = keys
            .into_iter()
            .filter_map(|key| {
                self.credit_events_held.get(&key).map(|ev| (*ev, key))
            })
            .collect();
        if batch.is_empty() {
            return;
        }
        let events: Vec<CreditEvent> = batch.iter().map(|(ev, _)| *ev).collect();
        let mut all_sent = true;
        for chunk in events.chunks(CREDIT_EVENTS_PER_FRAME) {
            if self.send_to(i, &Message::CreditEvents(chunk.to_vec()), now_ms) {
                self.stats.credit_events_sent += chunk.len() as u64;
            } else {
                all_sent = false;
                break;
            }
        }
        if all_sent {
            for (_, key) in &batch {
                self.seen.note(*key, Some(i));
            }
        }
    }

    /// Gossiped peer addresses: remember them, refresh live slots, and
    /// (with a dialer) open new outbound slots up to the degree cap.
    fn handle_peer_exchange(&mut self, entries: Vec<PeerEntry>, now_ms: u64) {
        for e in entries {
            if e.node_id == 0 || e.node_id == self.cfg.node_id {
                continue;
            }
            self.learn_addr(e.node_id, e.addr.clone());
            if let Some(j) = (0..self.peers.len())
                .find(|&j| self.peers[j].node_id == e.node_id && !self.peers[j].dead)
            {
                self.peers[j].addr = Some(e.addr);
                continue;
            }
            if let Some(j) =
                (0..self.peers.len()).find(|&j| self.peers[j].node_id == e.node_id)
            {
                // A dead slot for a peer the fleet says is reachable:
                // resurrect with a clean slate — unless it was demoted
                // for speaking a different protocol or ledger.
                if !self.peers[j].incompatible {
                    let slot = &mut self.peers[j];
                    slot.dead = false;
                    slot.failures = 0;
                    slot.backoff_ms = 0;
                    slot.next_retry_ms = now_ms;
                    slot.addr = Some(e.addr);
                }
                continue;
            }
            if self.dialer.is_none() {
                continue;
            }
            let outbound = self
                .peers
                .iter()
                .filter(|s| !s.dead && (s.connector.is_some() || s.addr.is_some()))
                .count();
            if outbound >= self.cfg.max_outbound
                || self.peers.len() >= self.cfg.max_known_peers
            {
                continue;
            }
            self.peers.push(PeerSlot {
                conn: None,
                connector: None,
                addr: Some(e.addr),
                node_id: e.node_id,
                digest_buf: Vec::new(),
            credit_buf: Vec::new(),
                failures: 0,
                backoff_ms: 0,
                next_retry_ms: now_ms,
                dead: false,
                incompatible: false,
            });
            self.stats.peers_discovered += 1;
        }
    }

    fn learn_addr(&mut self, node_id: u64, addr: String) {
        if node_id == 0 || node_id == self.cfg.node_id {
            return;
        }
        if self.known_addrs.contains_key(&node_id)
            || self.known_addrs.len() < self.cfg.max_known_peers
        {
            self.known_addrs.insert(node_id, addr);
        }
    }

    /// Sends a window of our known-peer list (including ourselves, so
    /// second-hop peers learn our address) to peer `i`. The window
    /// rotates across successive exchanges: frame size stays bounded
    /// by [`GossipConfig::pex_max_entries`] no matter how large the
    /// address book grows, and repeated exchanges still cover it all.
    fn send_peer_exchange_to(&mut self, i: usize, now_ms: u64) {
        let exclude = self.peers[i].node_id;
        let cap = self.cfg.pex_max_entries.clamp(1, MAX_PEER_ENTRIES);
        let mut entries: Vec<PeerEntry> = Vec::new();
        if self.cfg.node_id != 0 {
            if let Some(addr) = &self.cfg.listen_addr {
                entries.push(PeerEntry { node_id: self.cfg.node_id, addr: addr.clone() });
            }
        }
        let book: Vec<(&u64, &String)> =
            self.known_addrs.iter().filter(|(&id, _)| id != exclude).collect();
        if !book.is_empty() {
            self.rr = self.rr.wrapping_add(1);
            let start = self.rr % book.len();
            for k in 0..book.len() {
                if entries.len() >= cap {
                    break;
                }
                let (&node_id, addr) = book[(start + k) % book.len()];
                entries.push(PeerEntry { node_id, addr: addr.clone() });
            }
        }
        if entries.is_empty() {
            return;
        }
        if self.send_to(i, &Message::PeerExchange(entries), now_ms) {
            self.stats.peer_exchanges_sent += 1;
        }
    }

    fn handle_hello(
        &mut self,
        i: usize,
        version: u16,
        their_id: u64,
        genesis: Option<TxId>,
        listen_addr: Option<String>,
        now_ms: u64,
    ) {
        if version != PROTOCOL_VERSION {
            self.demote_incompatible(i);
            return;
        }
        let ours = self.tangle.lock().unwrap().genesis();
        if let (Some(a), Some(b)) = (ours, genesis) {
            if a != b {
                self.demote_incompatible(i);
                return;
            }
        }
        if self.cfg.node_id != 0 && their_id != 0 {
            if their_id == self.cfg.node_id {
                // We dialed ourselves (our own address came back through
                // peer exchange). Kill the link, never retry.
                if let Some(mut c) = self.peers[i].conn.take() {
                    c.transport.close();
                }
                self.peers[i].dead = true;
                return;
            }
            if let Some(addr) = &listen_addr {
                self.learn_addr(their_id, addr.clone());
            }
            // Duplicate link to a peer we're already connected to (both
            // sides dialed each other). Both ends apply the same rule —
            // keep the link dialed by the lower node id — so they agree
            // on which connection survives.
            let dup = (0..self.peers.len()).find(|&j| {
                j != i && self.peers[j].node_id == their_id && self.peers[j].conn.is_some()
            });
            if let Some(j) = dup {
                let keep_outbound = self.cfg.node_id < their_id;
                let i_out = self.peers[i].conn.as_ref().expect("has conn").outbound;
                let j_out = self.peers[j].conn.as_ref().expect("dup check").outbound;
                let loser = if i_out == j_out {
                    i.max(j) // same direction: keep the older slot
                } else if i_out == keep_outbound {
                    j
                } else {
                    i
                };
                let winner = if loser == i { j } else { i };
                // The surviving slot inherits any redial capability so
                // the peer stays reachable if the kept link later dies.
                if self.peers[winner].connector.is_none() {
                    self.peers[winner].connector = self.peers[loser].connector.take();
                }
                if self.peers[winner].addr.is_none() {
                    self.peers[winner].addr = self.peers[loser].addr.take();
                }
                self.peers[winner].node_id = their_id;
                if let Some(mut c) = self.peers[loser].conn.take() {
                    c.transport.close();
                }
                self.peers[loser].dead = true;
                if loser == i {
                    return;
                }
            }
        }
        self.peers[i].node_id = their_id;
        let buffered = match self.peers[i].conn.as_mut() {
            Some(c) => {
                c.ready = true;
                std::mem::take(&mut c.prehello)
            }
            None => return,
        };
        self.stats.handshakes += 1;
        self.peers[i].failures = 0;
        self.peers[i].backoff_ms = 0;
        if self.cfg.peer_exchange_ms > 0 {
            self.send_peer_exchange_to(i, now_ms);
        }
        if !self.credit_replay.is_empty() {
            // Partition heal: a freshly handshaken peer may have missed
            // credit events; replay what we hold (dedup on its side is
            // free — we skip events it's already a known holder of).
            let fresh: Vec<(CreditEvent, [u8; 32])> = self
                .credit_replay
                .iter()
                .filter_map(|key| {
                    self.credit_events_held.get(key).map(|ev| (*ev, *key))
                })
                .collect();
            self.send_credit_replay_to(i, &fresh, now_ms);
        }
        // Kick off synchronization immediately rather than waiting for
        // the first anti-entropy tick.
        if self.is_cold() {
            self.send_to(i, &Message::GetBaseline, now_ms);
        } else {
            self.send_to(i, &Message::GetTips, now_ms);
            let tips: Vec<TxId> = {
                let tangle = self.tangle.lock().unwrap();
                tangle.tips_iter().take(MAX_IDS_PER_TIPS).collect()
            };
            self.send_to(i, &Message::Tips(tips), now_ms);
        }
        for msg in buffered {
            self.handle_message(i, msg, now_ms);
        }
    }

    /// Replays held credit events to one newly ready peer, skipping
    /// events it is already a known holder of.
    fn send_credit_replay_to(
        &mut self,
        i: usize,
        fresh: &[(CreditEvent, [u8; 32])],
        now_ms: u64,
    ) {
        let batch: Vec<CreditEvent> = fresh
            .iter()
            .filter(|(_, key)| !self.seen.is_holder(key, i))
            .map(|(ev, _)| *ev)
            .collect();
        if batch.is_empty() {
            return;
        }
        let keys: Vec<[u8; 32]> = fresh
            .iter()
            .filter(|(_, key)| !self.seen.is_holder(key, i))
            .map(|(_, key)| *key)
            .collect();
        let mut all_sent = true;
        for chunk in batch.chunks(CREDIT_EVENTS_PER_FRAME) {
            if self.send_to(i, &Message::CreditEvents(chunk.to_vec()), now_ms) {
                self.stats.credit_events_sent += chunk.len() as u64;
            } else {
                all_sent = false;
                break;
            }
        }
        if all_sent {
            for key in keys {
                self.seen.note(key, Some(i));
            }
        }
    }

    fn handle_baseline(
        &mut self,
        i: usize,
        genesis: Option<(u64, Transaction)>,
        pruned: Vec<TxId>,
        now_ms: u64,
    ) {
        if !self.is_cold() {
            return; // unsolicited or late; we already have a baseline
        }
        {
            self.tangle.lock().unwrap().adopt_pruned(pruned.iter().copied());
        }
        if let Some((_attach_ms, gtx)) = genesis {
            self.ingest(Some(i), gtx, 0, now_ms);
        }
        // Anything buffered that was waiting on now-pruned ancestors is
        // attachable.
        for id in pruned {
            self.resolve_waiters(id, now_ms);
        }
        self.send_to(i, &Message::GetTips, now_ms);
    }

    fn request_due(&self, id: &TxId, now_ms: u64) -> bool {
        match self.requested.get(id) {
            None => true,
            Some(r) => now_ms.saturating_sub(r.at_ms) >= self.cfg.request_retry_ms,
        }
    }

    /// Picks a ready peer to request `id` from, avoiding `avoid` (the
    /// peer a previous request went to) when any alternative exists.
    /// Known holders are preferred; otherwise a rotating index spreads
    /// requests over the ready set.
    fn pick_request_peer(&mut self, id: &TxId, avoid: Option<usize>) -> Option<usize> {
        let ready: Vec<usize> = (0..self.peers.len()).filter(|&j| self.peer_ready(j)).collect();
        if ready.is_empty() {
            return None;
        }
        if let Some(&h) = ready
            .iter()
            .find(|&&j| Some(j) != avoid && self.seen.is_holder(&id.0, j))
        {
            return Some(h);
        }
        let candidates: Vec<usize> =
            ready.iter().copied().filter(|&j| Some(j) != avoid).collect();
        if candidates.is_empty() {
            return Some(ready[0]); // the stalled peer is all we have
        }
        self.rr = self.rr.wrapping_add(1);
        Some(candidates[self.rr % candidates.len()])
    }

    fn request_if_unknown(&mut self, i: usize, id: TxId, now_ms: u64) {
        let known = {
            let t = self.tangle.lock().unwrap();
            t.contains(&id) || t.is_pruned(&id)
        };
        if known || self.pending.contains_key(&id) || !self.request_due(&id, now_ms) {
            return;
        }
        self.requested.insert(id, Requested { at_ms: now_ms, peer: i });
        self.stats.requests_sent += 1;
        self.send_to(i, &Message::GetTx(id), now_ms);
    }

    /// A transaction arrived — from peer `from`, or from outside the
    /// gossip layer (`None`, see [`submit`](Self::submit)): attach it, or
    /// buffer it until its parents arrive.
    fn ingest(&mut self, from: Option<usize>, tx: Transaction, attach_ms: u64, now_ms: u64) {
        let id = tx.id();
        self.seen.note(id.0, from);
        if tx.is_genesis() {
            self.ingest_genesis(from, tx, now_ms);
            return;
        }
        let missing: Vec<TxId> = {
            let t = self.tangle.lock().unwrap();
            if t.contains(&id) || t.is_pruned(&id) {
                self.requested.remove(&id);
                self.stats.duplicates += 1;
                return;
            }
            tx.parents()
                .into_iter()
                .filter(|p| *p != TxId::GENESIS_PARENT && !t.contains(p) && !t.is_pruned(p))
                .collect()
        };
        if self.pending.contains_key(&id) {
            self.stats.duplicates += 1;
            return;
        }
        if missing.is_empty() {
            self.try_attach_resolved(from, tx, attach_ms, now_ms);
            return;
        }
        // Buffer and chase the missing ancestors.
        self.requested.remove(&id);
        let missing_set: BTreeSet<TxId> = missing.iter().copied().collect();
        for parent in &missing_set {
            self.waiters.entry(*parent).or_default().push(id);
        }
        self.pending.insert(
            id,
            PendingTx { tx, attach_ms, missing: missing_set.clone(), seq: self.pending_seq },
        );
        self.pending_seq += 1;
        self.evict_if_full();
        for parent in missing_set {
            if !self.request_due(&parent, now_ms) {
                continue;
            }
            let target = match from {
                Some(i) => Some(i),
                None => self.pick_request_peer(&parent, None),
            };
            let Some(t) = target else { continue };
            self.requested.insert(parent, Requested { at_ms: now_ms, peer: t });
            self.stats.requests_sent += 1;
            self.send_to(t, &Message::GetTx(parent), now_ms);
        }
    }

    fn ingest_genesis(&mut self, from: Option<usize>, tx: Transaction, now_ms: u64) {
        let claimed = tx.id();
        let rebuilt = {
            let mut t = self.tangle.lock().unwrap();
            if t.genesis().is_some() || t.is_pruned(&claimed) {
                self.requested.remove(&claimed);
                self.stats.duplicates += 1;
                return;
            }
            // A genesis is fully determined by (issuer, timestamp); rebuild
            // it locally so the id provably matches the peer's ledger.
            t.attach_genesis(tx.issuer, tx.timestamp_ms)
        };
        self.requested.remove(&claimed);
        if rebuilt != claimed {
            self.stats.rejected += 1;
            return;
        }
        self.stats.attached += 1;
        self.relay_tx(rebuilt, from, false, now_ms);
        self.resolve_waiters(rebuilt, now_ms);
    }

    /// Attaches a transaction whose parents are all present, then
    /// cascades through everything that was waiting on it.
    fn try_attach_resolved(
        &mut self,
        from: Option<usize>,
        tx: Transaction,
        attach_ms: u64,
        now_ms: u64,
    ) {
        let id = tx.id();
        self.requested.remove(&id);
        let result = self.tangle.lock().unwrap().attach(tx, attach_ms);
        match result {
            Ok(_) => {
                self.stats.attached += 1;
                self.relay_tx(id, from, false, now_ms);
                self.resolve_waiters(id, now_ms);
            }
            Err(TangleError::Duplicate(_)) => self.stats.duplicates += 1,
            Err(_) => self.stats.rejected += 1,
        }
    }

    /// `satisfied` just became available (attached or adopted as pruned):
    /// attach every pending descendant whose last missing parent it was,
    /// cascading breadth-first.
    fn resolve_waiters(&mut self, satisfied: TxId, now_ms: u64) {
        let mut queue = vec![satisfied];
        while let Some(done) = queue.pop() {
            let Some(children) = self.waiters.remove(&done) else { continue };
            for child in children {
                let now_complete = match self.pending.get_mut(&child) {
                    Some(p) => {
                        p.missing.remove(&done);
                        p.missing.is_empty()
                    }
                    None => false, // evicted meanwhile
                };
                if !now_complete {
                    continue;
                }
                let p = self.pending.remove(&child).expect("checked above");
                let result = self.tangle.lock().unwrap().attach(p.tx, p.attach_ms);
                match result {
                    Ok(_) => {
                        self.stats.attached += 1;
                        self.requested.remove(&child);
                        self.relay_tx(child, None, false, now_ms);
                        queue.push(child);
                    }
                    Err(TangleError::Duplicate(_)) => self.stats.duplicates += 1,
                    Err(_) => self.stats.rejected += 1,
                }
            }
        }
    }

    /// Oldest-first eviction keeps the solidification queue bounded.
    fn evict_if_full(&mut self) {
        while self.pending.len() > self.cfg.max_pending {
            let victim = self
                .pending
                .iter()
                .min_by_key(|(_, p)| p.seq)
                .map(|(id, _)| *id)
                .expect("non-empty: len > cap >= 0");
            let p = self.pending.remove(&victim).expect("just found");
            for parent in p.missing {
                if let Some(w) = self.waiters.get_mut(&parent) {
                    w.retain(|c| *c != victim);
                    if w.is_empty() {
                        self.waiters.remove(&parent);
                    }
                }
            }
            self.stats.evicted += 1;
        }
    }

    // --- Anti-entropy --------------------------------------------------------

    fn run_anti_entropy(&mut self, now_ms: u64) {
        if self.is_cold() {
            // Cold bootstrap: ask everyone — the first answer wins.
            for i in 0..self.peers.len() {
                if self.peer_ready(i) {
                    self.send_to(i, &Message::GetBaseline, now_ms);
                }
            }
        } else {
            // Warm steady state: classic pairwise anti-entropy — ONE
            // rotated peer per round. Tips exchange with every peer
            // every round costs O(degree) frames per tick for a repair
            // path that rarely fires (handshakes already swap tips, and
            // digest relay covers live spread); rotation keeps the same
            // eventual coverage at a fraction of the wire cost.
            let ready: Vec<usize> = (0..self.peers.len()).filter(|&i| self.peer_ready(i)).collect();
            if !ready.is_empty() {
                self.rr = self.rr.wrapping_add(1);
                let i = ready[self.rr % ready.len()];
                self.send_to(i, &Message::GetTips, now_ms);
            }
        }
        // Re-request parents still missing whose last request went stale
        // (e.g. the peer we asked died — or simply never answered).
        // Each retry goes to ONE peer, and a *different* one than last
        // time when any alternative is ready, so a stalled peer doesn't
        // get hammered while the rest of the mesh sits idle.
        let stale: Vec<TxId> = {
            let mut set = BTreeSet::new();
            for p in self.pending.values() {
                for parent in &p.missing {
                    if self.request_due(parent, now_ms) {
                        set.insert(*parent);
                    }
                }
            }
            set.into_iter().collect()
        };
        for id in stale {
            let avoid = self.requested.get(&id).map(|r| r.peer);
            let Some(target) = self.pick_request_peer(&id, avoid) else { continue };
            self.requested.insert(id, Requested { at_ms: now_ms, peer: target });
            self.stats.requests_sent += 1;
            self.send_to(target, &Message::GetTx(id), now_ms);
        }
        // Credit pulls whose answer never arrived (lost frame, dead
        // peer): retry from any ready known holder, or forget the key
        // when no holder remains — a future digest re-triggers it.
        let due: Vec<[u8; 32]> = self
            .credit_requested
            .iter()
            .filter(|(key, &at)| {
                !self.credit_events_held.contains_key(*key)
                    && now_ms.saturating_sub(at) >= self.cfg.request_retry_ms
            })
            .map(|(key, _)| *key)
            .collect();
        for key in due {
            let holder = (0..self.peers.len())
                .find(|&j| self.peer_ready(j) && self.seen.is_holder(&key, j));
            let Some(j) = holder else {
                self.credit_requested.remove(&key);
                continue;
            };
            self.credit_requested.insert(key, now_ms);
            self.stats.requests_sent += 1;
            self.send_to(j, &Message::GetCreditEvents(vec![key]), now_ms);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::MemTransport;
    use biot_tangle::tx::{NodeId, Payload, TransactionBuilder};

    fn data_tx(n: u8, trunk: TxId, branch: TxId, ts: u64) -> Transaction {
        TransactionBuilder::new(NodeId([n; 32]))
            .parents(trunk, branch)
            .payload(Payload::Data(vec![n, ts as u8]))
            .timestamp_ms(ts)
            .build()
    }

    /// A hand-driven fake peer: the test speaks raw wire frames.
    struct FakePeer {
        transport: MemTransport,
    }

    impl FakePeer {
        fn send(&mut self, msg: &Message) {
            use crate::transport::Transport;
            self.transport.send(&encode_msg(msg)).unwrap();
        }

        fn drain(&mut self) -> Vec<Message> {
            use crate::transport::Transport;
            let mut out = Vec::new();
            while let Ok(Some(f)) = self.transport.try_recv() {
                out.push(decode_msg(&f).unwrap());
            }
            out
        }

        fn hello(genesis: Option<TxId>) -> Message {
            Message::Hello {
                version: PROTOCOL_VERSION,
                node_id: 0,
                genesis,
                baseline: baseline_hash(genesis, &[]),
                listen_addr: None,
            }
        }

        fn hello_as(node_id: u64, addr: &str, genesis: Option<TxId>) -> Message {
            Message::Hello {
                version: PROTOCOL_VERSION,
                node_id,
                genesis,
                baseline: baseline_hash(genesis, &[]),
                listen_addr: Some(addr.to_string()),
            }
        }
    }

    fn node_with_genesis() -> (GossipNode, TxId) {
        let node = GossipNode::with_empty_tangle(GossipConfig::default());
        let g = node.tangle().lock().unwrap().attach_genesis(NodeId([0; 32]), 0);
        (node, g)
    }

    fn wire_fake_peer(node: &mut GossipNode) -> FakePeer {
        let (ours, theirs, _link) = MemTransport::pair();
        node.add_transport(Box::new(ours), 0);
        FakePeer { transport: theirs }
    }

    #[test]
    fn version_mismatch_demotes_peer() {
        let (mut node, g) = node_with_genesis();
        let mut peer = wire_fake_peer(&mut node);
        peer.send(&Message::Hello {
            version: PROTOCOL_VERSION + 1,
            node_id: 0,
            genesis: Some(g),
            baseline: [0; 32],
            listen_addr: None,
        });
        node.poll(0);
        assert_eq!(node.peer_info(0).state, PeerState::Dead);
        assert_eq!(node.stats().incompatible, 1);
    }

    #[test]
    fn genesis_mismatch_demotes_peer() {
        let (mut node, _g) = node_with_genesis();
        let mut peer = wire_fake_peer(&mut node);
        peer.send(&FakePeer::hello(Some(TxId([0xBB; 32]))));
        node.poll(0);
        assert_eq!(node.peer_info(0).state, PeerState::Dead);
    }

    #[test]
    fn out_of_order_arrival_solidifies_in_cascade() {
        let (mut node, g) = node_with_genesis();
        let mut peer = wire_fake_peer(&mut node);
        peer.send(&FakePeer::hello(Some(g)));
        node.poll(0);
        peer.drain();

        // Build child → grandchild remotely; deliver grandchild FIRST.
        let child = data_tx(1, g, g, 10);
        let grand = data_tx(2, child.id(), child.id(), 20);
        let grand_id = grand.id();
        peer.send(&Message::TxPayload { attach_ms: 20, tx: grand });
        node.poll(30);
        assert_eq!(node.pending_len(), 1, "grandchild buffered");
        let asks = peer.drain();
        assert!(
            asks.contains(&Message::GetTx(child.id())),
            "missing parent must be requested, got {asks:?}"
        );

        peer.send(&Message::TxPayload { attach_ms: 10, tx: child.clone() });
        node.poll(40);
        assert_eq!(node.pending_len(), 0, "cascade drained the queue");
        let t = node.tangle().lock().unwrap();
        assert!(t.contains(&child.id()));
        assert!(t.contains(&grand_id));
        assert_eq!(t.tips(), vec![grand_id]);
    }

    #[test]
    fn solidification_queue_evicts_oldest_when_full() {
        let cfg = GossipConfig { max_pending: 3, ..GossipConfig::default() };
        let mut node = GossipNode::new(
            Arc::new(Mutex::new(Tangle::new())),
            cfg,
        );
        let g = node.tangle().lock().unwrap().attach_genesis(NodeId([0; 32]), 0);
        let mut peer = wire_fake_peer(&mut node);
        peer.send(&FakePeer::hello(Some(g)));
        node.poll(0);
        peer.drain();

        // Five orphans, each waiting on a distinct unknown parent.
        for n in 0..5u8 {
            let phantom = TxId([0xF0 + n; 32]);
            peer.send(&Message::TxPayload {
                attach_ms: 10,
                tx: data_tx(n, phantom, phantom, 10 + n as u64),
            });
        }
        node.poll(20);
        assert_eq!(node.pending_len(), 3, "bounded queue");
        assert_eq!(node.stats().evicted, 2, "oldest two evicted");
    }

    #[test]
    fn serves_gettx_and_tips() {
        let (mut node, g) = node_with_genesis();
        let id = node.attach_local(data_tx(1, g, g, 5), 5).unwrap();
        let mut peer = wire_fake_peer(&mut node);
        peer.send(&FakePeer::hello(Some(g)));
        node.poll(0);
        peer.drain();

        peer.send(&Message::GetTx(id));
        peer.send(&Message::GetTips);
        node.poll(10);
        let msgs = peer.drain();
        assert!(msgs.iter().any(
            |m| matches!(m, Message::TxPayload { tx, .. } if tx.id() == id)
        ));
        assert!(msgs.contains(&Message::Tips(vec![id])));
    }

    #[test]
    fn frames_before_hello_are_buffered_not_lost() {
        let (mut node, g) = node_with_genesis();
        let mut peer = wire_fake_peer(&mut node);
        // A digest, a payload and a tips frame arrive before the handshake
        // (a reordering transport can do this); all are processed once
        // Hello lands.
        let child = data_tx(1, g, g, 10);
        let (digested, tipped) = (TxId([0xD1; 32]), TxId([0xD2; 32]));
        peer.send(&Message::Digest(vec![digested]));
        peer.send(&Message::TxPayload { attach_ms: 10, tx: child.clone() });
        peer.send(&Message::Tips(vec![tipped]));
        peer.send(&FakePeer::hello(Some(g)));
        node.poll(0);
        assert!(node.tangle().lock().unwrap().contains(&child.id()));
        let msgs = peer.drain();
        assert!(msgs.contains(&Message::GetTxs(vec![digested])), "got {msgs:?}");
        assert!(msgs.contains(&Message::GetTx(tipped)), "got {msgs:?}");
    }

    /// Undecodable frames drop the connection — including tag 1, the
    /// per-tx `Announce` frame retired in protocol v3.
    #[test]
    fn garbage_frame_drops_connection() {
        use crate::transport::Transport;
        let mut retired_announce = vec![1u8];
        retired_announce.extend_from_slice(&[0xAB; 32]);
        for frame in [vec![0xDE, 0xAD, 0xBE, 0xEF], retired_announce] {
            let (mut node, g) = node_with_genesis();
            let mut peer = wire_fake_peer(&mut node);
            peer.send(&FakePeer::hello(Some(g)));
            node.poll(0);
            assert_eq!(node.ready_peers(), 1);
            peer.transport.send(&frame).unwrap();
            node.poll(10);
            assert_eq!(node.stats().invalid_frames, 1, "{frame:?}");
            assert!(node.peers[0].conn.is_none(), "{frame:?}");
        }
    }

    /// A local broadcast reaches ready peers as a key advert at the next
    /// flush, served on pull; a peer still awaiting its handshake gets
    /// nothing on the wire (the handshake replay covers it).
    #[test]
    fn credit_events_broadcast_to_ready_peers_only() {
        use biot_credit::Misbehavior;
        use biot_net::time::SimTime;
        let (mut node, g) = node_with_genesis();
        let mut ready = wire_fake_peer(&mut node);
        let mut silent = wire_fake_peer(&mut node);
        ready.send(&FakePeer::hello(Some(g)));
        node.poll(0);
        ready.drain();
        silent.drain(); // only our Hello; never completes the handshake

        let events = vec![
            CreditEvent::validated(NodeId([1; 32]), 1.0, SimTime::from_secs(1)),
            CreditEvent::misbehaved(NodeId([2; 32]), Misbehavior::DoubleSpend, SimTime::from_secs(2)),
        ];
        let keys: Vec<[u8; 32]> = events.iter().map(credit_key).collect();
        node.broadcast_credit_events(&events, 10);
        node.poll(10 + GossipConfig::default().digest_ms);
        let msgs = ready.drain();
        assert!(
            msgs.contains(&Message::CreditKeys(keys.clone())),
            "ready peer gets the keys, got {msgs:?}"
        );
        ready.send(&Message::GetCreditEvents(keys));
        node.poll(200);
        assert!(ready.drain().contains(&Message::CreditEvents(events)), "pull is served");
        assert_eq!(node.stats().credit_events_sent, 2);
        assert!(silent.drain().is_empty(), "unhandshaken peer gets nothing");
    }

    #[test]
    fn received_credit_events_land_in_the_inbox() {
        use biot_credit::Misbehavior;
        use biot_net::time::SimTime;
        let (mut node, g) = node_with_genesis();
        let mut peer = wire_fake_peer(&mut node);
        peer.send(&FakePeer::hello(Some(g)));
        node.poll(0);
        peer.drain();

        let ev = CreditEvent::misbehaved(NodeId([9; 32]), Misbehavior::LazyTips, SimTime::from_secs(3));
        peer.send(&Message::CreditEvents(vec![ev]));
        node.poll(10);
        assert_eq!(node.credit_inbox_len(), 1);
        assert_eq!(node.stats().credit_events_received, 1);
        assert_eq!(node.take_credit_events(), vec![ev]);
        assert_eq!(node.credit_inbox_len(), 0, "take drains the inbox");
    }

    #[test]
    fn large_credit_batches_are_chunked_and_the_inbox_is_capped() {
        use biot_net::time::SimTime;
        let credit_frames = |msgs: Vec<Message>| -> Vec<usize> {
            msgs.into_iter()
                .filter_map(|m| match m {
                    Message::CreditEvents(evs) => Some(evs.len()),
                    _ => None,
                })
                .collect()
        };
        let (mut a, g) = node_with_genesis();
        let events: Vec<CreditEvent> = (0..1_500u64)
            .map(|i| CreditEvent::validated(NodeId([(i % 7) as u8; 32]), 1.0, SimTime::from_millis(i)))
            .collect();
        a.broadcast_credit_events(&events, 0);
        let keys: Vec<[u8; 32]> = events.iter().map(credit_key).collect();

        // Handshake replay and a served pull both chunk under the frame cap.
        let mut peer = wire_fake_peer(&mut a);
        peer.send(&FakePeer::hello(Some(g)));
        a.poll(10);
        assert_eq!(credit_frames(peer.drain()), vec![512, 512, 476], "replay chunked");
        peer.send(&Message::GetCreditEvents(keys));
        a.poll(20);
        assert_eq!(credit_frames(peer.drain()), vec![512, 512, 476], "pull chunked");

        // A peer pushing far more novel events than the inbox cap: the
        // overflow is counted, not kept.
        let (mut b, g2) = node_with_genesis();
        let mut flooder = wire_fake_peer(&mut b);
        flooder.send(&FakePeer::hello(Some(g2)));
        b.poll(0);
        flooder.drain();
        let total = MAX_CREDIT_INBOX as u64 + 1_000;
        let flood: Vec<CreditEvent> = (0..total)
            .map(|i| CreditEvent::validated(NodeId([3; 32]), 1.0, SimTime::from_millis(i)))
            .collect();
        for burst in flood.chunks(CREDIT_EVENTS_PER_FRAME) {
            flooder.send(&Message::CreditEvents(burst.to_vec()));
        }
        b.poll(10);
        assert_eq!(b.credit_inbox_len(), MAX_CREDIT_INBOX, "inbox bounded");
        assert_eq!(b.stats().credit_events_dropped, 1_000, "overflow accounted");
    }

    #[test]
    fn dead_peer_demoted_after_max_failures() {
        use crate::transport::{FnConnector, TransportError};
        let cfg = GossipConfig {
            backoff_base_ms: 100,
            backoff_max_ms: 800,
            max_connect_failures: 4,
            backoff_jitter_pct: 0,
            ..GossipConfig::default()
        };
        let mut node = GossipNode::with_empty_tangle(cfg);
        let i = node.connect(Box::new(FnConnector(|| Err(TransportError::Closed))));
        let mut now = 0u64;
        let mut seen_backoffs = Vec::new();
        for _ in 0..200 {
            node.poll(now);
            let info = node.peer_info(i);
            if info.state == PeerState::Dead {
                break;
            }
            seen_backoffs.push(info.backoff_ms);
            now += 50;
        }
        assert_eq!(node.peer_info(i).state, PeerState::Dead);
        // Exponential: 100, 200, 400, then capped at 800.
        seen_backoffs.dedup();
        assert_eq!(seen_backoffs, vec![100, 200, 400, 800]);
        let dials_before_death = node.stats().disconnects;
        node.poll(now + 10_000);
        assert_eq!(node.stats().disconnects, dials_before_death, "dead peers are left alone");
    }

    /// Satellite: backoff jitter is drawn from the node's seeded RNG —
    /// same seed, same delays; the jittered delays differ from the bare
    /// exponential sequence.
    #[test]
    fn backoff_jitter_is_seeded_and_deterministic() {
        use crate::transport::{FnConnector, TransportError};
        let run = |seed: u64, jitter: u64| -> Vec<u64> {
            let cfg = GossipConfig {
                backoff_base_ms: 100,
                backoff_max_ms: 10_000,
                max_connect_failures: 6,
                backoff_jitter_pct: jitter,
                seed,
                ..GossipConfig::default()
            };
            let mut node = GossipNode::with_empty_tangle(cfg);
            let i = node.connect(Box::new(FnConnector(|| Err(TransportError::Closed))));
            let mut now = 0u64;
            let mut backoffs = Vec::new();
            for _ in 0..400 {
                node.poll(now);
                let info = node.peer_info(i);
                if info.state == PeerState::Dead {
                    break;
                }
                backoffs.push(info.backoff_ms);
                now += 25;
            }
            backoffs.dedup();
            backoffs
        };
        let a = run(42, 25);
        let b = run(42, 25);
        assert_eq!(a, b, "two seeded runs agree");
        let exact = run(42, 0);
        assert_ne!(a, exact, "jitter actually perturbs the delays");
        assert_eq!(exact, vec![100, 200, 400, 800, 1600, 3200]);
        // Every jittered delay stays within ±25% of its exponential rung.
        for (got, want) in a.iter().zip(exact.iter()) {
            let spread = want / 4;
            assert!(
                *got >= want - spread && *got <= want + spread,
                "{got} outside {want}±{spread}"
            );
        }
    }

    /// Satellite: a missing parent is re-requested from a *different*
    /// peer after the retry window, not hammered at the stalled one.
    #[test]
    fn stale_rerequest_rotates_to_a_different_peer() {
        let cfg = GossipConfig {
            request_retry_ms: 100,
            anti_entropy_ms: 200,
            ..GossipConfig::default()
        };
        let mut node = GossipNode::new(Arc::new(Mutex::new(Tangle::new())), cfg);
        let g = node.tangle().lock().unwrap().attach_genesis(NodeId([0; 32]), 0);
        let mut stalled = wire_fake_peer(&mut node);
        let mut healthy = wire_fake_peer(&mut node);
        stalled.send(&FakePeer::hello(Some(g)));
        healthy.send(&FakePeer::hello(Some(g)));
        node.poll(0);
        stalled.drain();
        healthy.drain();

        // A child referencing an unknown parent arrives from the stalled
        // peer; the first GetTx goes back to it (it claimed to hold the
        // cone) — and then it never answers.
        let parent = data_tx(1, g, g, 10);
        let child = data_tx(2, parent.id(), parent.id(), 20);
        stalled.send(&Message::TxPayload { attach_ms: 20, tx: child });
        node.poll(10);
        let first: Vec<Message> = stalled.drain();
        assert!(
            first.contains(&Message::GetTx(parent.id())),
            "initial request goes to the source, got {first:?}"
        );
        assert!(
            !healthy.drain().contains(&Message::GetTx(parent.id())),
            "no shotgun to every peer on first request"
        );

        // Past the retry window the re-request must rotate away from the
        // stalled source.
        node.poll(250);
        let retried = healthy.drain();
        assert!(
            retried.contains(&Message::GetTx(parent.id())),
            "stale request rotates to the other peer, got {retried:?}"
        );
        assert!(
            !stalled.drain().contains(&Message::GetTx(parent.id())),
            "the stalled peer is not asked again while an alternative exists"
        );
    }

    /// Digest relay is eager/lazy: each attach pushes the payload to
    /// exactly one fresh peer, the other peers get a batched id digest
    /// at the flush tick, and pulls are served in batches.
    #[test]
    fn digest_mode_pushes_one_copy_and_digests_the_rest() {
        let cfg = GossipConfig {
            digest_ms: 100,
            heartbeat_ms: 0,
            anti_entropy_ms: 1_000_000, // keep tips exchange out of frame
            peer_exchange_ms: 0,
            ..GossipConfig::default()
        };
        let mut node = GossipNode::with_empty_tangle(cfg);
        let g = node.tangle().lock().unwrap().attach_genesis(NodeId([0; 32]), 0);
        let mut p0 = wire_fake_peer(&mut node);
        let mut p1 = wire_fake_peer(&mut node);
        p0.send(&FakePeer::hello(Some(g)));
        p1.send(&FakePeer::hello(Some(g)));
        node.poll(0);
        p0.drain();
        p1.drain();

        let a = node.attach_local(data_tx(1, g, g, 10), 10).unwrap();
        node.poll(150); // past the flush tick
        let (m0, m1) = (p0.drain(), p1.drain());
        let payload_in =
            |ms: &[Message]| ms.iter().any(|m| matches!(m, Message::TxPayload { tx, .. } if tx.id() == a));
        let digest_in =
            |ms: &[Message]| ms.iter().any(|m| matches!(m, Message::Digest(ids) if ids.contains(&a)));
        assert_eq!(
            payload_in(&m0) as u8 + payload_in(&m1) as u8,
            1,
            "exactly one eager payload copy: {m0:?} / {m1:?}"
        );
        assert_eq!(
            digest_in(&m0) as u8 + digest_in(&m1) as u8,
            1,
            "the other peer gets the id digest: {m0:?} / {m1:?}"
        );
        assert!(
!(payload_in(&m0) && digest_in(&m0) || payload_in(&m1) && digest_in(&m1)),
            "no peer gets both copies"
        );
        assert_eq!(node.stats().eager_pushes, 1);

        // Batched pulls are served in order.
        let b = node.attach_local(data_tx(2, a, g, 11), 11).unwrap();
        let c = node.attach_local(data_tx(3, b, a, 12), 12).unwrap();
        p0.drain();
        p1.drain();
        p0.send(&Message::GetTxs(vec![b, c]));
        node.poll(200);
        let served: Vec<TxId> = p0
            .drain()
            .into_iter()
            .filter_map(|m| match m {
                Message::TxPayload { tx, .. } => Some(tx.id()),
                _ => None,
            })
            .collect();
        assert_eq!(served, vec![b, c]);
    }

    #[test]
    fn digest_receiver_pulls_only_unknown_ids() {
        let cfg = GossipConfig {
            heartbeat_ms: 0,
            anti_entropy_ms: 1_000_000,
            peer_exchange_ms: 0,
            ..GossipConfig::default()
        };
        let mut node = GossipNode::with_empty_tangle(cfg);
        let g = node.tangle().lock().unwrap().attach_genesis(NodeId([0; 32]), 0);
        let held = node.attach_local(data_tx(1, g, g, 5), 5).unwrap();
        let mut peer = wire_fake_peer(&mut node);
        peer.send(&FakePeer::hello(Some(g)));
        node.poll(0);
        peer.drain();

        let phantom = TxId([0xAB; 32]);
        peer.send(&Message::Digest(vec![held, phantom]));
        node.poll(10);
        let msgs = peer.drain();
        assert!(
            msgs.contains(&Message::GetTxs(vec![phantom])),
            "only the unknown id is pulled, got {msgs:?}"
        );
    }

    /// Duplicate suppression: a transaction digest-announced by a peer is
    /// never digest-announced back to it, and a second delivery of the
    /// same payload is dropped as a duplicate.
    #[test]
    fn digest_relay_never_echoes_to_a_known_holder() {
        let cfg = GossipConfig {
            digest_ms: 100,
            heartbeat_ms: 0,
            anti_entropy_ms: 1_000_000,
            peer_exchange_ms: 0,
            ..GossipConfig::default()
        };
        let mut node = GossipNode::with_empty_tangle(cfg);
        let g = node.tangle().lock().unwrap().attach_genesis(NodeId([0; 32]), 0);
        let mut src = wire_fake_peer(&mut node);
        let mut other = wire_fake_peer(&mut node);
        src.send(&FakePeer::hello(Some(g)));
        other.send(&FakePeer::hello(Some(g)));
        node.poll(0);
        src.drain();
        other.drain();

        let tx = data_tx(1, g, g, 10);
        let id = tx.id();
        src.send(&Message::TxPayload { attach_ms: 10, tx: tx.clone() });
        node.poll(10);
        node.poll(150); // digest flush
        let to_src = src.drain();
        assert!(
            !to_src.iter().any(|m| matches!(m, Message::Digest(ids) if ids.contains(&id))
                || matches!(m, Message::TxPayload { tx, .. } if tx.id() == id)),
            "no echo back to the sender, got {to_src:?}"
        );
        // A relayed (non-local) attach stays lazy: the other peer is
        // told by digest, not handed an unsolicited payload copy.
        let to_other = other.drain();
        assert!(
            to_other
                .iter()
                .any(|m| matches!(m, Message::Digest(ids) if ids.contains(&id))),
            "the other peer is told by digest, got {to_other:?}"
        );
        assert!(
            !to_other
                .iter()
                .any(|m| matches!(m, Message::TxPayload { tx, .. } if tx.id() == id)),
            "relayed attaches are not eager-pushed, got {to_other:?}"
        );

        // Redundant second delivery: counted, not re-attached.
        let dups_before = node.stats().duplicates;
        other.send(&Message::TxPayload { attach_ms: 10, tx });
        node.poll(200);
        assert_eq!(node.stats().duplicates, dups_before + 1);
    }

    /// Peer exchange: a node with one seed link discovers a third peer's
    /// address and dials it through its `Dialer`.
    #[test]
    fn peer_exchange_discovers_and_dials_new_peers() {
        use crate::transport::FnDialer;
        use std::sync::mpsc;

        let cfg = GossipConfig {
            node_id: 1,
            listen_addr: Some("sim:1".into()),
            peer_exchange_ms: 500,
            heartbeat_ms: 0,
            ..GossipConfig::default()
        };
        let mut node = GossipNode::with_empty_tangle(cfg);
        let g = node.tangle().lock().unwrap().attach_genesis(NodeId([0; 32]), 0);
        let (dialed_tx, dialed_rx) = mpsc::channel::<String>();
        node.set_dialer(Box::new(FnDialer(move |addr: &str| {
            dialed_tx.send(addr.to_string()).unwrap();
            let (ours, _theirs, link) = MemTransport::pair();
            std::mem::forget(link); // keep the pair alive for the test
            Ok(Box::new(ours) as Box<dyn Transport>)
        })));
        let mut seed = wire_fake_peer(&mut node);
        seed.send(&FakePeer::hello_as(2, "sim:2", Some(g)));
        node.poll(0);
        seed.drain();
        assert_eq!(node.known_addr_count(), 1, "seed's address learned from its hello");

        // The seed gossips a third peer; the node must open a slot for it
        // and dial on the next poll.
        seed.send(&Message::PeerExchange(vec![PeerEntry {
            node_id: 3,
            addr: "sim:3".into(),
        }]));
        node.poll(10);
        node.poll(20);
        assert_eq!(node.stats().peers_discovered, 1);
        assert_eq!(dialed_rx.try_recv().unwrap(), "sim:3");
        assert_eq!(node.known_addr_count(), 2);

        // Entries for ourselves are ignored.
        seed.send(&Message::PeerExchange(vec![PeerEntry {
            node_id: 1,
            addr: "sim:1".into(),
        }]));
        node.poll(30);
        assert_eq!(node.stats().peers_discovered, 1, "own id never dialed");
    }

    /// Mesh credit relay: the same event arriving twice (two peers) lands
    /// in the inbox exactly once — the ledger would otherwise
    /// double-count it — and is relayed onward to non-holders only.
    #[test]
    fn mesh_credit_events_are_deduped_and_relayed_once() {
        use biot_net::time::SimTime;
        let cfg = GossipConfig {
            relay_mode: RelayMode::Flood,
            heartbeat_ms: 0,
            anti_entropy_ms: 1_000_000,
            peer_exchange_ms: 0,
            ..GossipConfig::default()
        };
        let mut node = GossipNode::with_empty_tangle(cfg);
        let g = node.tangle().lock().unwrap().attach_genesis(NodeId([0; 32]), 0);
        let mut a = wire_fake_peer(&mut node);
        let mut b = wire_fake_peer(&mut node);
        let mut c = wire_fake_peer(&mut node);
        a.send(&FakePeer::hello(Some(g)));
        b.send(&FakePeer::hello(Some(g)));
        c.send(&FakePeer::hello(Some(g)));
        node.poll(0);
        a.drain();
        b.drain();
        c.drain();

        let ev = CreditEvent::validated(NodeId([7; 32]), 2.0, SimTime::from_secs(9));
        a.send(&Message::CreditEvents(vec![ev]));
        node.poll(10);
        assert_eq!(node.credit_inbox_len(), 1);
        // Relayed onward to b and c, never echoed back to the source.
        assert!(b.drain().contains(&Message::CreditEvents(vec![ev])));
        assert!(c.drain().contains(&Message::CreditEvents(vec![ev])));
        assert!(!a.drain().contains(&Message::CreditEvents(vec![ev])));

        // A redundant copy from b is deduped: inbox unchanged, nothing
        // re-relayed to anyone (all three are known holders now).
        b.send(&Message::CreditEvents(vec![ev]));
        node.poll(20);
        assert_eq!(node.credit_inbox_len(), 1, "second copy deduped");
        assert_eq!(node.stats().credit_events_deduped, 1);
        assert!(!a.drain().contains(&Message::CreditEvents(vec![ev])));
        assert!(!b.drain().contains(&Message::CreditEvents(vec![ev])));
        assert!(!c.drain().contains(&Message::CreditEvents(vec![ev])));
    }

    /// Digest-mode credit relay: a received event spreads as a 32-byte
    /// key in a `CreditKeys` frame; a peer that lacks it pulls the full
    /// event with `GetCreditEvents`, and a peer that already advertised
    /// the key is never sent anything.
    #[test]
    fn mesh_credit_spreads_by_key_and_pull() {
        use biot_net::time::SimTime;
        let cfg = GossipConfig {
            digest_ms: 25,
            heartbeat_ms: 0,
            anti_entropy_ms: 1_000_000,
            peer_exchange_ms: 0,
            fanout: 0,
            ..GossipConfig::default()
        };
        let mut node = GossipNode::with_empty_tangle(cfg);
        let g = node.tangle().lock().unwrap().attach_genesis(NodeId([0; 32]), 0);
        let mut src = wire_fake_peer(&mut node);
        let mut lacking = wire_fake_peer(&mut node);
        let mut holding = wire_fake_peer(&mut node);
        src.send(&FakePeer::hello(Some(g)));
        lacking.send(&FakePeer::hello(Some(g)));
        holding.send(&FakePeer::hello(Some(g)));
        node.poll(0);
        src.drain();
        lacking.drain();
        holding.drain();

        let ev = CreditEvent::validated(NodeId([7; 32]), 2.0, SimTime::from_secs(9));
        let key = credit_key(&ev);
        // `holding` advertises the key first: the node learns it holds
        // the event, and pulls it (the node itself lacks it).
        holding.send(&Message::CreditKeys(vec![key]));
        node.poll(10);
        assert!(
            holding.drain().contains(&Message::GetCreditEvents(vec![key])),
            "node pulls an advertised event it lacks"
        );
        // The event arrives from `src` instead (races are normal).
        src.send(&Message::CreditEvents(vec![ev]));
        node.poll(20);
        assert_eq!(node.credit_inbox_len(), 1);
        // The digest flush advertises the key onward — to `lacking`
        // only: `src` sent it, `holding` advertised it.
        node.poll(50);
        assert!(
            lacking.drain().contains(&Message::CreditKeys(vec![key])),
            "key digested to the peer that lacks it"
        );
        assert!(!src.drain().iter().any(|m| matches!(
            m,
            Message::CreditKeys(_) | Message::CreditEvents(_)
        )));
        assert!(!holding.drain().iter().any(|m| matches!(
            m,
            Message::CreditKeys(_) | Message::CreditEvents(_)
        )));
        // `lacking` pulls; the node serves the full event exactly once.
        lacking.send(&Message::GetCreditEvents(vec![key]));
        node.poll(60);
        assert!(
            lacking.drain().contains(&Message::CreditEvents(vec![ev])),
            "pull served from the replay store"
        );
        lacking.send(&Message::GetCreditEvents(vec![key]));
        node.poll(90);
        // A re-pull is still served (the peer may have lost the frame),
        // but an unknown key is silently skipped.
        lacking.send(&Message::GetCreditEvents(vec![[0xEE; 32]]));
        node.poll(120);
        let msgs = lacking.drain();
        assert!(!msgs.iter().any(|m| matches!(m, Message::CreditEvents(evs) if evs.len() != 1)));
    }

    /// Credit events a peer receives, flattened across frames.
    fn credit_events_in(msgs: Vec<Message>) -> Vec<CreditEvent> {
        msgs.into_iter()
            .filter_map(|m| match m {
                Message::CreditEvents(evs) => Some(evs),
                _ => None,
            })
            .flatten()
            .collect()
    }

    /// The handshake replays held credit events to late joiners exactly
    /// once: to a peer with no slot at broadcast time, and to one whose
    /// transport was attached but whose Hello had not landed — neither
    /// gets a second copy at the next flush.
    #[test]
    fn credit_replay_covers_late_handshakes() {
        use biot_net::time::SimTime;
        let cfg = GossipConfig {
            digest_ms: 50,
            heartbeat_ms: 0,
            peer_exchange_ms: 0,
            ..GossipConfig::default()
        };
        let mut node = GossipNode::with_empty_tangle(cfg);
        let g = node.tangle().lock().unwrap().attach_genesis(NodeId([0; 32]), 0);
        let ev = CreditEvent::validated(NodeId([5; 32]), 1.5, SimTime::from_secs(4));
        node.broadcast_credit_events(&[ev], 0); // no peers yet: replay-buffered

        let mut late = wire_fake_peer(&mut node);
        late.send(&FakePeer::hello(Some(g)));
        node.poll(10);
        let msgs = late.drain();
        assert!(
            msgs.contains(&Message::CreditEvents(vec![ev])),
            "late joiner gets the replay, got {msgs:?}"
        );

        // Attached but not yet handshaken when the next event goes out.
        let mut midway = wire_fake_peer(&mut node);
        node.poll(20);
        let ev2 = CreditEvent::validated(NodeId([6; 32]), 2.5, SimTime::from_secs(5));
        node.broadcast_credit_events(&[ev2], 20);
        assert!(credit_events_in(midway.drain()).is_empty(), "nothing before Hello");
        midway.send(&FakePeer::hello(Some(g)));
        node.poll(30);
        assert_eq!(credit_events_in(midway.drain()), vec![ev, ev2], "replayed after Hello");
        node.poll(200); // past the flush armed by the broadcast
        let after = midway.drain();
        assert!(credit_events_in(after.clone()).is_empty(), "no second copy, got {after:?}");
        assert!(
            !after.iter().any(|m| matches!(m, Message::CreditKeys(_))),
            "no key advert for events it holds, got {after:?}"
        );
    }

    /// The replay store keeps the newest `credit_replay` events: past the
    /// cap the oldest go first.
    #[test]
    fn credit_replay_cap_evicts_oldest_first() {
        use biot_net::time::SimTime;
        let cfg = GossipConfig { credit_replay: 3, ..GossipConfig::default() };
        let mut node = GossipNode::with_empty_tangle(cfg);
        let g = node.tangle().lock().unwrap().attach_genesis(NodeId([0; 32]), 0);
        let events: Vec<CreditEvent> = (0..5u64)
            .map(|i| CreditEvent::validated(NodeId([1; 32]), 1.0, SimTime::from_millis(i)))
            .collect();
        for ev in &events {
            node.broadcast_credit_events(&[*ev], 0);
        }
        let mut late = wire_fake_peer(&mut node);
        late.send(&FakePeer::hello(Some(g)));
        node.poll(10);
        assert_eq!(credit_events_in(late.drain()), events[2..].to_vec());
    }

    /// The digest flush timer runs only while a buffer holds work: an
    /// idle node with ready peers has no flush deadline, a local attach
    /// arms one `digest_ms` out, and the flush disarms it.
    #[test]
    fn digest_flush_is_armed_only_while_buffers_hold_work() {
        let cfg = GossipConfig {
            digest_ms: 100,
            heartbeat_ms: 0,
            anti_entropy_ms: 1_000_000,
            peer_exchange_ms: 0,
            ..GossipConfig::default()
        };
        let mut node = GossipNode::with_empty_tangle(cfg);
        let g = node.tangle().lock().unwrap().attach_genesis(NodeId([0; 32]), 0);
        let mut p0 = wire_fake_peer(&mut node);
        let mut p1 = wire_fake_peer(&mut node);
        p0.send(&FakePeer::hello(Some(g)));
        p1.send(&FakePeer::hello(Some(g)));
        node.poll(0);
        node.poll(5);
        assert_eq!(node.ready_peers(), 2);
        let flush = |n: &GossipNode| n.timers.deadline_of(&GossipTimer::DigestFlush);
        assert_eq!(flush(&node), None, "idle: no flush armed");
        assert_eq!(node.next_deadline(), Some(1_000_000), "only anti-entropy is due");

        node.attach_local(data_tx(1, g, g, 10), 10).unwrap();
        assert_eq!(flush(&node), Some(110), "first enqueue arms the flush");
        node.attach_local(data_tx(2, g, g, 40), 40).unwrap();
        assert_eq!(flush(&node), Some(110), "later enqueues ride the same window");
        assert_eq!(node.next_deadline(), Some(110));

        node.poll(110);
        assert!(
            p0.drain().iter().chain(p1.drain().iter()).any(|m| matches!(m, Message::Digest(_))),
            "the flush sent the digests"
        );
        assert_eq!(flush(&node), None, "the flush disarms itself");
        assert_eq!(node.next_deadline(), Some(1_000_000));
    }

    /// A node dialing itself (its own address echoed back through peer
    /// exchange) recognizes its own id in the hello and kills the link.
    #[test]
    fn self_connection_is_refused() {
        let cfg = GossipConfig { node_id: 7, ..GossipConfig::default() };
        let mut node = GossipNode::with_empty_tangle(cfg);
        let g = node.tangle().lock().unwrap().attach_genesis(NodeId([0; 32]), 0);
        let mut peer = wire_fake_peer(&mut node);
        peer.send(&FakePeer::hello_as(7, "sim:7", Some(g)));
        node.poll(0);
        assert_eq!(node.peer_info(0).state, PeerState::Dead);
        assert_eq!(node.ready_peers(), 0);
    }

    /// Two identified nodes with links in both directions keep exactly
    /// one: the surviving slot inherits the loser's redial ability.
    #[test]
    fn duplicate_links_collapse_to_one() {
        let cfg = GossipConfig { node_id: 1, ..GossipConfig::default() };
        let mut node = GossipNode::with_empty_tangle(cfg);
        let g = node.tangle().lock().unwrap().attach_genesis(NodeId([0; 32]), 0);
        let mut first = wire_fake_peer(&mut node);
        first.send(&FakePeer::hello_as(9, "sim:9", Some(g)));
        node.poll(0);
        first.drain();
        assert_eq!(node.ready_peers(), 1);

        let mut second = wire_fake_peer(&mut node);
        second.send(&FakePeer::hello_as(9, "sim:9", Some(g)));
        node.poll(10);
        assert_eq!(node.ready_peers(), 1, "duplicate link resolved");
        let states: Vec<PeerState> =
            (0..2).map(|i| node.peer_info(i).state).collect();
        assert!(states.contains(&PeerState::Ready));
        assert!(states.contains(&PeerState::Dead));
    }
}
