//! Transaction relay (DESIGN §12.3): the seen cache, flood, eager push,
//! digest enqueue and flush, digest receipt, and serving pulls.

use super::solidify::Requested;
use super::{GossipNode, GossipTimer, RelayMode};
use crate::wire::{Message, MAX_IDS_PER_DIGEST};
use biot_tangle::tx::TxId;
use std::collections::{HashMap, VecDeque};

/// Entries in the fixed-memory recently-seen cache (tx ids + credit-event
/// checksums, with per-peer holder sets).
const SEEN_CACHE: usize = 65_536;

/// Fixed-memory recently-seen cache: 32-byte keys (tx ids and
/// credit-event checksums) → the peer indices known to hold the item.
/// FIFO eviction keeps it bounded no matter how hostile the fleet.
pub(super) struct SeenCache {
    map: HashMap<[u8; 32], Vec<u32>>,
    order: VecDeque<[u8; 32]>,
}

impl SeenCache {
    pub(super) fn new() -> Self {
        Self { map: HashMap::new(), order: VecDeque::new() }
    }

    /// Marks `key` seen, optionally recording `holder` as a peer that
    /// has the item. Returns true when the key is new.
    pub(super) fn note(&mut self, key: [u8; 32], holder: Option<usize>) -> bool {
        if let Some(holders) = self.map.get_mut(&key) {
            if let Some(h) = holder {
                let h = h as u32;
                if !holders.contains(&h) {
                    holders.push(h);
                }
            }
            return false;
        }
        while self.map.len() >= SEEN_CACHE {
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

    pub(super) fn is_holder(&self, key: &[u8; 32], peer: usize) -> bool {
        self.map
            .get(key)
            .is_some_and(|holders| holders.contains(&(peer as u32)))
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

    /// Sends every peer's buffered credit-event keys as `CreditKeys`
    /// frames, then every peer's buffered tx ids as `Digest` frames.
    pub(super) fn flush_digests(&mut self, now_ms: u64) {
        for i in 0..self.peers.len() {
            let keys = std::mem::take(&mut self.peers[i].credit_buf);
            let (_, sent) = self.flush_buf(i, keys, |key| *key, Message::CreditKeys, now_ms);
            self.stats.credit_keys_sent += sent;
        }
        for i in 0..self.peers.len() {
            let ids = std::mem::take(&mut self.peers[i].digest_buf);
            let (frames, sent) = self.flush_buf(i, ids, |id| id.0, Message::Digest, now_ms);
            self.stats.digests_sent += frames;
            self.stats.digest_ids_sent += sent;
        }
    }

    /// Sends peer `i` one flushed buffer as `frame`s under the id cap,
    /// first dropping anything the peer is now known to hold — holder
    /// knowledge often improves inside the flush window, when the peer's
    /// own digest of the same item crosses ours mid-wave. A buffer for
    /// an unready peer is discarded: the handshake's tips exchange and
    /// credit replay cover whatever it missed. Returns the frames and
    /// items sent.
    fn flush_buf<K: Copy>(
        &mut self,
        i: usize,
        mut buf: Vec<K>,
        key: fn(&K) -> [u8; 32],
        frame: fn(Vec<K>) -> Message,
        now_ms: u64,
    ) -> (u64, u64) {
        if buf.is_empty() || !self.peer_ready(i) {
            return (0, 0);
        }
        buf.retain(|k| {
            let held = self.seen.is_holder(&key(k), i);
            if held {
                self.stats.dup_suppressed += 1;
            }
            !held
        });
        let (mut frames, mut sent) = (0, 0);
        for chunk in buf.chunks(MAX_IDS_PER_DIGEST) {
            if !self.send_to(i, &frame(chunk.to_vec()), now_ms) {
                break;
            }
            frames += 1;
            sent += chunk.len() as u64;
        }
        (frames, sent)
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
