//! Credit-event relay (DESIGN §12.4): content keys, broadcast, key
//! digests and pulls, the bounded replay store, and the credit half of
//! anti-entropy. This is the only file that hashes a credit event.

use super::{GossipNode, RelayMode};
use crate::wire::{Message, MAX_IDS_PER_DIGEST};
use biot_credit::event::encode_event;
use biot_credit::CreditEvent;
use biot_crypto::sha256::sha256;

/// Credit events per `CreditEvents` frame (≤ ~50 B each, stays well
/// under the frame limit).
pub(super) const CREDIT_EVENTS_PER_FRAME: usize = 512;
/// Cap on credit events waiting in the inbox for the owner to drain,
/// and on outstanding credit pulls; a hostile peer cannot balloon
/// memory past this.
pub(super) const MAX_CREDIT_INBOX: usize = 65_536;
/// Credit events kept for replay to peers that handshake later
/// (partition heal) and for serving pulls; oldest dropped past the cap.
pub(super) const CREDIT_REPLAY: usize = 8_192;

/// Checksum identifying one credit event in the seen cache.
pub(super) fn credit_key(ev: &CreditEvent) -> [u8; 32] {
    sha256(&encode_event(ev))
}

impl GossipNode {
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
            self.seen.note(key, None);
            if self.credit_events_held.contains_key(&key) {
                continue;
            }
            self.push_replay(*ev, key);
            fresh.push((*ev, key));
        }
        self.relay_credit(&fresh, None, now_ms);
    }

    /// Marks credit events the owner applied before this node started
    /// (recovered from its store) as processed, so a peer's replay of
    /// them is deduped. They are never relayed, replayed or served: a
    /// snapshot's merged events have keys peers lack, so peers would
    /// apply them as new.
    pub fn mark_credit_recovered(&mut self, events: &[CreditEvent]) {
        self.credit_recovered.extend(events.iter().map(credit_key));
    }

    /// Whether the event with `key` was processed: held, or recovered.
    fn credit_processed(&self, key: &[u8; 32]) -> bool {
        self.credit_events_held.contains_key(key) || self.credit_recovered.contains(key)
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
            for i in 0..self.peers.len() {
                if Some(i) == except || !self.peer_ready(i) {
                    continue;
                }
                let batch: Vec<(CreditEvent, [u8; 32])> =
                    fresh.iter().filter(|(_, key)| !self.seen.is_holder(key, i)).copied().collect();
                self.send_credit_events(i, &batch, now_ms);
            }
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

    /// Sends `batch` to peer `i` in `CreditEvents` frames under the
    /// frame cap, and records the peer as a holder of every event only
    /// when every frame went out: a peer whose link died mid-batch must
    /// still get the events from the next handshake replay.
    fn send_credit_events(&mut self, i: usize, batch: &[(CreditEvent, [u8; 32])], now_ms: u64) {
        if batch.is_empty() {
            return;
        }
        for chunk in batch.chunks(CREDIT_EVENTS_PER_FRAME) {
            let events = chunk.iter().map(|(ev, _)| *ev).collect();
            if !self.send_to(i, &Message::CreditEvents(events), now_ms) {
                return;
            }
            self.stats.credit_events_sent += chunk.len() as u64;
        }
        for (_, key) in batch {
            self.seen.note(*key, Some(i));
        }
    }

    fn push_replay(&mut self, ev: CreditEvent, key: [u8; 32]) {
        if self.credit_events_held.contains_key(&key) {
            return;
        }
        if self.credit_replay.len() >= CREDIT_REPLAY {
            if let Some(old) = self.credit_replay.pop_front() {
                self.credit_events_held.remove(&old);
            }
        }
        self.credit_replay.push_back(key);
        self.credit_events_held.insert(key, ev);
    }

    /// A batch of credit events from peer `i`: keep the ones this node
    /// has not processed, hand them to the owner, and relay them on.
    pub(super) fn handle_credit_events(&mut self, i: usize, events: Vec<CreditEvent>, now_ms: u64) {
        self.stats.credit_events_received += events.len() as u64;
        // Exactly-once per node. The credit ledger merges same-instant
        // weights by accumulation, so a duplicate delivery would corrupt
        // credit — dedup by checksum is load-bearing, not an
        // optimization. The replay store, not seen-cache novelty, is the
        // record of processed events: a `CreditKeys` advert inserts the
        // key into the seen cache *before* the event arrives.
        let mut fresh: Vec<(CreditEvent, [u8; 32])> = Vec::new();
        for ev in events {
            let key = credit_key(&ev);
            self.credit_requested.remove(&key);
            self.seen.note(key, Some(i));
            if self.credit_processed(&key) {
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

    /// A digest of credit-event keys the sender holds: record it as a
    /// holder of each, then pull only the events we lack with one
    /// batched request — the credit analogue of `handle_digest`.
    pub(super) fn handle_credit_keys(&mut self, i: usize, keys: Vec<[u8; 32]>, now_ms: u64) {
        let mut want: Vec<[u8; 32]> = Vec::new();
        for key in keys {
            self.seen.note(key, Some(i));
            if self.credit_processed(&key)
                || !self.retry_due(self.credit_requested.get(&key).copied(), now_ms)
            {
                continue;
            }
            if self.credit_requested.len() >= MAX_CREDIT_INBOX
                && !self.credit_requested.contains_key(&key)
            {
                // Hostile key flood: stop tracking new pulls.
                self.stats.credit_pulls_refused += 1;
                continue;
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

    /// Serves a batched credit-event pull from the replay store. Unknown
    /// keys (evicted, or never held) are silently skipped — the
    /// requester's retry rotates to another holder.
    pub(super) fn serve_credit_events(&mut self, i: usize, keys: Vec<[u8; 32]>, now_ms: u64) {
        let batch: Vec<(CreditEvent, [u8; 32])> = keys
            .into_iter()
            .filter_map(|key| self.credit_events_held.get(&key).map(|ev| (*ev, key)))
            .collect();
        self.send_credit_events(i, &batch, now_ms);
    }

    /// Partition heal: a freshly handshaken peer may have missed credit
    /// events, so replay what we hold, oldest first, minus the events it
    /// is already a known holder of.
    pub(super) fn replay_credit_to(&mut self, i: usize, now_ms: u64) {
        let batch: Vec<(CreditEvent, [u8; 32])> = self
            .credit_replay
            .iter()
            .filter(|key| !self.seen.is_holder(key, i))
            .filter_map(|key| self.credit_events_held.get(key).map(|ev| (*ev, *key)))
            .collect();
        self.send_credit_events(i, &batch, now_ms);
    }

    /// Credit pulls whose answer never arrived (lost frame, dead peer):
    /// retry from any ready known holder, or forget the key when no
    /// holder remains — a future digest re-triggers it.
    pub(super) fn retry_credit_pulls(&mut self, now_ms: u64) {
        let due: Vec<[u8; 32]> = self
            .credit_requested
            .iter()
            .filter(|(key, &at)| {
                !self.credit_processed(key) && self.retry_due(Some(at), now_ms)
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
