//! Peer exchange (DESIGN §12.2): gossiping a rotating window of the
//! address book, and opening outbound slots for what others gossip.

use super::peers::PeerSlot;
use super::GossipNode;
use crate::wire::{Message, PeerEntry, MAX_PEER_ENTRIES};

/// Cap on outbound links (seed connectors + peers discovered via peer
/// exchange); bounds the mesh degree.
const MAX_OUTBOUND: usize = 8;
/// Cap on remembered peer addresses and total peer slots.
const MAX_KNOWN_PEERS: usize = 256;
/// Entries per outbound [`Message::PeerExchange`] frame. Each exchange
/// sends a rotating *window* of the address book rather than the whole
/// book, so PEX wire cost stays constant as the fleet grows; successive
/// exchanges cover the full book.
const PEX_MAX_ENTRIES: usize = 16;
const _: () = assert!(PEX_MAX_ENTRIES >= 1 && PEX_MAX_ENTRIES <= MAX_PEER_ENTRIES);

impl GossipNode {
    /// Gossiped peer addresses: remember them, refresh live slots, and
    /// (with a dialer) open new outbound slots up to the degree cap.
    pub(super) fn handle_peer_exchange(&mut self, entries: Vec<PeerEntry>, now_ms: u64) {
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
            if outbound >= MAX_OUTBOUND || self.peers.len() >= MAX_KNOWN_PEERS {
                continue;
            }
            self.peers.push(PeerSlot {
                node_id: e.node_id,
                next_retry_ms: now_ms,
                ..PeerSlot::new(None, None, Some(e.addr))
            });
            self.stats.peers_discovered += 1;
        }
    }

    pub(super) fn learn_addr(&mut self, node_id: u64, addr: String) {
        if node_id == 0 || node_id == self.cfg.node_id {
            return;
        }
        if self.known_addrs.contains_key(&node_id) || self.known_addrs.len() < MAX_KNOWN_PEERS {
            self.known_addrs.insert(node_id, addr);
        }
    }

    /// Sends a window of our known-peer list (including ourselves, so
    /// second-hop peers learn our address) to peer `i`. The window
    /// rotates across successive exchanges: frame size stays bounded by
    /// [`PEX_MAX_ENTRIES`] no matter how large the address book grows,
    /// and repeated exchanges still cover it all.
    pub(super) fn send_peer_exchange_to(&mut self, i: usize, now_ms: u64) {
        let exclude = self.peers[i].node_id;
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
                if entries.len() >= PEX_MAX_ENTRIES {
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
}
