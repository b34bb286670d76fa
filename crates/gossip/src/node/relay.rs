//! Transaction relay (DESIGN §12.3): the seen cache, flood, eager push,
//! digest enqueue and flush, digest receipt, and serving pulls.

use super::solidify::Requested;
use super::{GossipNode, GossipTimer, RelayMode};
use crate::wire::{Message, MAX_IDS_PER_DIGEST};
use biot_tangle::tx::TxId;
use std::collections::{HashMap, VecDeque};

/// Entries in the fixed-memory recently-seen cache (tx ids with per-peer
/// holder sets).
const SEEN_CACHE: usize = 65_536;

/// Fixed-memory recently-seen cache: 32-byte tx ids → the peer indices
/// known to hold the transaction.
/// FIFO eviction keeps it bounded no matter how hostile the fleet.
///
/// Most keys have at most one holder (the peer that sent the item), so
/// the first holder is stored inline and only further holders go to a
/// side map. Eviction drops a key from both maps.
pub(super) struct SeenCache {
    /// Key → first known holder, or [`NO_HOLDER`].
    map: HashMap<[u8; 32], u32>,
    /// Holders after the first, for the keys that have any.
    more: HashMap<[u8; 32], Vec<u32>>,
    order: VecDeque<[u8; 32]>,
}

/// A seen key no peer is known to hold yet.
const NO_HOLDER: u32 = u32::MAX;

impl SeenCache {
    pub(super) fn new() -> Self {
        Self { map: HashMap::new(), more: HashMap::new(), order: VecDeque::new() }
    }

    /// Marks `key` seen, optionally recording `holder` as a peer that
    /// has the item. Returns true when the key is new.
    pub(super) fn note(&mut self, key: [u8; 32], holder: Option<usize>) -> bool {
        let h = holder.map_or(NO_HOLDER, |h| h as u32);
        if let Some(first) = self.map.get_mut(&key) {
            if h != NO_HOLDER && *first != h {
                if *first == NO_HOLDER {
                    *first = h;
                } else {
                    let more = self.more.entry(key).or_default();
                    if !more.contains(&h) {
                        more.push(h);
                    }
                }
            }
            return false;
        }
        while self.map.len() >= SEEN_CACHE {
            match self.order.pop_front() {
                Some(old) => {
                    self.map.remove(&old);
                    self.more.remove(&old);
                }
                None => break,
            }
        }
        self.map.insert(key, h);
        self.order.push_back(key);
        true
    }

    pub(super) fn is_holder(&self, key: &[u8; 32], peer: usize) -> bool {
        let peer = peer as u32;
        match self.map.get(key) {
            Some(&first) if first == peer => true,
            Some(_) => self.more.get(key).is_some_and(|more| more.contains(&peer)),
            None => false,
        }
    }
}

impl GossipNode {
    /// Pushes a freshly attached transaction onward, per the configured
    /// relay mode. `local` marks transactions this node originated
    /// (attach_local), which digest mode eager-pushes.
    pub(super) fn relay_tx(&mut self, id: TxId, from: Option<usize>, local: bool, now_ms: u64) {
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

    /// The `TxPayload` frame for `id` with its original attach time, if
    /// the tangle holds it.
    fn payload(&self, id: &TxId) -> Option<Message> {
        let t = self.lock_tangle();
        let tx = t.get(id)?.clone();
        Some(Message::TxPayload { attach_ms: t.attach_time_ms(id).unwrap_or(0), tx })
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
        let Some(msg) = self.payload(&id) else { return };
        if self.send_to(target, &msg, now_ms) {
            self.stats.tx_sent += 1;
            self.stats.eager_pushes += 1;
            self.seen.note(id.0, Some(target));
        }
    }

    /// Naive flood: the full payload to every ready peer except its
    /// source. The baseline a digest mesh is measured against.
    fn flood_payload(&mut self, id: TxId, except: Option<usize>, now_ms: u64) {
        let Some(msg) = self.payload(&id) else { return };
        for i in 0..self.peers.len() {
            if Some(i) == except || !self.peer_ready(i) {
                continue;
            }
            if self.send_to(i, &msg, now_ms) {
                self.stats.tx_sent += 1;
            }
        }
    }

    /// Serves a `GetTx`/`GetTxs` pull, marking the requester a holder of
    /// every payload sent; ids we do not hold count as misses.
    pub(super) fn serve_txs(&mut self, i: usize, ids: &[TxId], now_ms: u64) {
        for id in ids {
            let Some(msg) = self.payload(id) else {
                self.stats.gettx_misses += 1;
                continue;
            };
            self.stats.tx_sent += 1;
            if self.send_to(i, &msg, now_ms) {
                // The requester holds it once this lands — no need to
                // ever digest it back at them.
                self.seen.note(id.0, Some(i));
            }
        }
    }

    /// Queues `id` for the next digest flush, to at most
    /// [`GossipConfig::fanout`](super::GossipConfig::fanout) eligible
    /// peers — ready, not the source, and not already known to hold it.
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

    /// Schedules the digest flush
    /// [`GossipConfig::digest_ms`](super::GossipConfig::digest_ms) out
    /// unless it is already pending: the first enqueue into empty
    /// buffers starts the window, later ones ride it.
    pub(super) fn arm_flush(&mut self, now_ms: u64) {
        if self.timers.deadline_of(&GossipTimer::DigestFlush).is_none() {
            self.timers
                .schedule(GossipTimer::DigestFlush, now_ms + self.cfg.digest_ms.max(1));
        }
    }

    /// Sends every peer its buffered tx ids as `Digest` frames under the
    /// id cap, first dropping any id the peer is now known to hold —
    /// holder knowledge often improves inside the flush window, when the
    /// peer's own digest of the same id crosses ours mid-wave. A buffer
    /// for an unready peer is discarded: the handshake's tips exchange
    /// covers whatever it missed.
    pub(super) fn flush_digests(&mut self, now_ms: u64) {
        for i in 0..self.peers.len() {
            let mut ids = std::mem::take(&mut self.peers[i].digest_buf);
            if ids.is_empty() || !self.peer_ready(i) {
                continue;
            }
            ids.retain(|id| {
                let held = self.seen.is_holder(&id.0, i);
                if held {
                    self.stats.dup_suppressed += 1;
                }
                !held
            });
            for chunk in ids.chunks(MAX_IDS_PER_DIGEST) {
                if !self.send_to(i, &Message::Digest(chunk.to_vec()), now_ms) {
                    break;
                }
                self.stats.digests_sent += 1;
                self.stats.digest_ids_sent += chunk.len() as u64;
            }
        }
    }

    /// A digest of ids the sender holds: record it as a holder of each,
    /// then pull only what we lack with one batched request.
    pub(super) fn handle_digest(&mut self, i: usize, ids: Vec<TxId>, now_ms: u64) {
        let mut want: Vec<TxId> = Vec::new();
        for id in ids {
            self.seen.note(id.0, Some(i));
            if !self.wants(&id, now_ms) {
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
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(n: u32) -> [u8; 32] {
        let mut k = [0u8; 32];
        k[..4].copy_from_slice(&n.to_be_bytes());
        k
    }

    #[test]
    fn further_holders_are_recorded() {
        let mut seen = SeenCache::new();
        assert!(seen.note(key(1), Some(4)), "first sight is new");
        assert!(!seen.note(key(1), Some(7)));
        assert!(!seen.note(key(1), Some(2)));
        for peer in [4, 7, 2] {
            assert!(seen.is_holder(&key(1), peer), "peer {peer}");
        }
        assert!(!seen.is_holder(&key(1), 3));
        assert!(!seen.is_holder(&key(2), 4), "unknown key has no holders");

        // Seen with no holder first: the first holder noted later counts.
        assert!(seen.note(key(2), None));
        assert!(!seen.is_holder(&key(2), 0));
        assert!(!seen.note(key(2), Some(0)));
        assert!(seen.is_holder(&key(2), 0));
        assert!(!seen.more.contains_key(&key(2)), "one holder needs no side entry");
    }

    #[test]
    fn noting_a_known_holder_adds_nothing() {
        let mut seen = SeenCache::new();
        seen.note(key(1), Some(4));
        assert!(!seen.note(key(1), Some(4)));
        assert!(!seen.note(key(1), None));
        assert!(seen.more.is_empty(), "the inline holder is not repeated");
        seen.note(key(1), Some(5));
        assert!(!seen.note(key(1), Some(5)));
        assert!(!seen.note(key(1), Some(4)));
        assert_eq!(seen.more[&key(1)], vec![5]);
        assert_eq!((seen.map.len(), seen.more.len()), (1, 1));
    }

    #[test]
    fn eviction_drops_the_side_entry_too() {
        let mut seen = SeenCache::new();
        let cap = SEEN_CACHE as u32;
        for n in 0..cap {
            seen.note(key(n), Some(0));
            seen.note(key(n), Some(1));
        }
        assert_eq!((seen.map.len(), seen.more.len()), (SEEN_CACHE, SEEN_CACHE));
        // Each new key evicts the oldest, from both maps.
        for n in cap..cap + 100 {
            assert!(seen.note(key(n), Some(2)));
            assert!(seen.more.len() <= seen.map.len());
        }
        assert_eq!((seen.map.len(), seen.order.len()), (SEEN_CACHE, SEEN_CACHE));
        assert_eq!(seen.more.len(), SEEN_CACHE - 100);
        assert!(!seen.is_holder(&key(0), 1), "evicted key forgot its holders");
        assert!(!seen.more.contains_key(&key(99)));
        assert!(seen.is_holder(&key(100), 1), "survivor keeps its second holder");
        // An evicted key comes back as new, with only its new holder.
        assert!(seen.note(key(0), Some(3)));
        assert!(!seen.is_holder(&key(0), 1));
        assert!(seen.is_holder(&key(0), 3));
    }
}
