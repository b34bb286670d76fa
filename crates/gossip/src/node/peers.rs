//! The peer table (DESIGN §12.1): connections, redial with seeded
//! backoff, silence expiry, and the handshake with its duplicate-link
//! tie-break.

use super::GossipNode;
use crate::transport::{Connector, Transport};
use crate::wire::{Message, PROTOCOL_VERSION};
use biot_tangle::tx::TxId;
use rand::Rng;
use std::collections::BTreeMap;

pub(super) struct Conn {
    pub(super) transport: Box<dyn Transport>,
    pub(super) hello_sent: bool,
    pub(super) ready: bool,
    /// True when this side dialed the connection (connector or dialer);
    /// false for accepted transports. The symmetric tie-break for
    /// duplicate links between two identified nodes keys off this.
    outbound: bool,
    /// Frames that arrived before the peer's Hello (possible under
    /// reordering transports); replayed once the handshake lands.
    pub(super) prehello: Vec<Message>,
    pub(super) last_seen_ms: u64,
}

impl Conn {
    /// A fresh link whose handshake has not started.
    pub(super) fn new(transport: Box<dyn Transport>, outbound: bool, now_ms: u64) -> Self {
        Self {
            transport,
            hello_sent: false,
            ready: false,
            outbound,
            prehello: Vec::new(),
            last_seen_ms: now_ms,
        }
    }
}

pub(super) struct PeerSlot {
    pub(super) conn: Option<Conn>,
    pub(super) connector: Option<Box<dyn Connector>>,
    /// Dial address for peers discovered via peer exchange (used with
    /// the node's [`Dialer`](crate::transport::Dialer)).
    pub(super) addr: Option<String>,
    /// Peer's node id (`0` until its Hello lands; pre-set for discovered
    /// peers).
    pub(super) node_id: u64,
    /// Digest ids queued for this peer, flushed
    /// [`GossipConfig::digest_ms`](super::GossipConfig::digest_ms) after
    /// the first enqueue.
    pub(super) digest_buf: Vec<TxId>,
    /// Origin → next seq this peer has shown it holds since the handshake.
    pub(super) credit_known: BTreeMap<u64, u64>,
    pub(super) failures: u32,
    pub(super) backoff_ms: u64,
    pub(super) next_retry_ms: u64,
    pub(super) dead: bool,
    /// Dead for protocol reasons (version/genesis mismatch); never
    /// resurrected by peer exchange.
    pub(super) incompatible: bool,
}

impl PeerSlot {
    /// A slot with a clean record: no failures, nothing queued,
    /// dialable (if it can dial at all) from time 0.
    pub(super) fn new(
        conn: Option<Conn>,
        connector: Option<Box<dyn Connector>>,
        addr: Option<String>,
    ) -> Self {
        Self {
            conn,
            connector,
            addr,
            node_id: 0,
            digest_buf: Vec::new(),
            credit_known: BTreeMap::new(),
            failures: 0,
            backoff_ms: 0,
            next_retry_ms: 0,
            dead: false,
            incompatible: false,
        }
    }
}

impl GossipNode {
    pub(super) fn redial_due_peers(&mut self, now_ms: u64) {
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
                Ok(transport) => self.peers[i].conn = Some(Conn::new(transport, true, now_ms)),
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

    pub(super) fn conn_lost(&mut self, i: usize, now_ms: u64) {
        self.peers[i].conn = None;
        self.record_failure(i, now_ms);
    }

    /// Closes peer `i`'s link and marks the slot dead.
    fn kill_link(&mut self, i: usize) {
        if let Some(mut c) = self.peers[i].conn.take() {
            c.transport.close();
        }
        self.peers[i].dead = true;
    }

    /// Drops a peer permanently (wrong protocol version / wrong ledger).
    fn demote_incompatible(&mut self, i: usize) {
        self.kill_link(i);
        self.peers[i].incompatible = true;
        self.stats.incompatible += 1;
    }

    pub(super) fn peer_ready(&self, i: usize) -> bool {
        self.peers[i].conn.as_ref().is_some_and(|c| c.ready)
    }

    /// Ready peers silent past the liveness window are treated as lost.
    pub(super) fn expire_silent_peers(&mut self, now_ms: u64) {
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

    pub(super) fn build_hello(&self) -> Message {
        Message::Hello {
            version: PROTOCOL_VERSION,
            node_id: self.cfg.node_id,
            genesis: self.lock_tangle().genesis(),
            listen_addr: self.cfg.listen_addr.clone(),
        }
    }

    pub(super) fn handle_hello(
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
        let ours = self.lock_tangle().genesis();
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
                self.kill_link(i);
                return;
            }
            if let Some(addr) = &listen_addr {
                self.learn_addr(their_id, addr.clone());
            }
            if !self.keep_one_link(i, their_id) {
                return;
            }
        }
        self.peers[i].node_id = their_id;
        self.peers[i].credit_known.clear();
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
        self.advertise_credit(i, None, now_ms);
        // Kick off synchronization immediately rather than waiting for
        // the first anti-entropy tick.
        self.send_to(i, &Message::GetTips, now_ms);
        let tips = self.tips();
        self.send_to(i, &tips, now_ms);
        for msg in buffered {
            self.handle_message(i, msg, now_ms);
        }
    }

    /// Duplicate link to a peer we're already connected to (both sides
    /// dialed each other). Both ends apply the same rule — keep the link
    /// dialed by the lower node id — so they agree on which connection
    /// survives. Returns false when slot `i` is the one dropped.
    fn keep_one_link(&mut self, i: usize, their_id: u64) -> bool {
        let dup = (0..self.peers.len()).find(|&j| {
            j != i && self.peers[j].node_id == their_id && self.peers[j].conn.is_some()
        });
        let Some(j) = dup else { return true };
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
        // The surviving slot inherits any redial capability so the peer
        // stays reachable if the kept link later dies.
        if self.peers[winner].connector.is_none() {
            self.peers[winner].connector = self.peers[loser].connector.take();
        }
        if self.peers[winner].addr.is_none() {
            self.peers[winner].addr = self.peers[loser].addr.take();
        }
        self.peers[winner].node_id = their_id;
        self.kill_link(loser);
        loser != i
    }
}
