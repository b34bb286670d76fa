//! Solidification and the transaction half of anti-entropy (DESIGN §8.3,
//! §8.4, §12.5): the pending queue and its waiters, parent requests and
//! their retries, and the tips exchange.

use super::GossipNode;
use crate::wire::Message;
use biot_tangle::graph::TangleError;
use biot_tangle::tx::{IdentifiedTx, TxId};
use std::collections::BTreeSet;

/// Cap on ids in one `Tips` frame (stays well under the frame limit).
const MAX_IDS_PER_TIPS: usize = 4_096;

/// One in-flight `GetTxs` request: when it was (last) sent and
/// which peer was asked, so a stale retry can rotate to a different peer.
pub(super) struct Requested {
    pub(super) at_ms: u64,
    pub(super) peer: usize,
}

/// A transaction waiting for its parents.
pub(super) struct PendingTx {
    tx: IdentifiedTx,
    attach_ms: u64,
    missing: BTreeSet<TxId>,
    /// Arrival order, for oldest-first eviction.
    seq: u64,
}

impl GossipNode {
    /// Our current tips, as a `Tips` frame.
    pub(super) fn tips(&self) -> Message {
        Message::Tips(self.lock_tangle().tips_iter().take(MAX_IDS_PER_TIPS).collect())
    }

    /// True when a request last sent at `last_ms` (`None`: never) may be
    /// sent again.
    pub(super) fn retry_due(&self, last_ms: Option<u64>, now_ms: u64) -> bool {
        last_ms.is_none_or(|at| now_ms.saturating_sub(at) >= self.cfg.request_retry_ms)
    }

    fn request_due(&self, id: &TxId, now_ms: u64) -> bool {
        self.retry_due(self.requested.get(id).map(|r| r.at_ms), now_ms)
    }

    /// True when `id` is unknown here — neither stored nor pending — and
    /// no request for it is still fresh.
    pub(super) fn wants(&self, id: &TxId, now_ms: u64) -> bool {
        let known = self.lock_tangle().contains(id);
        !known && !self.pending.contains_key(id) && self.request_due(id, now_ms)
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

    /// Asks peer `i` for `id` with a one-id `GetTxs`, recording the request.
    fn request_tx(&mut self, i: usize, id: TxId, now_ms: u64) {
        self.requested.insert(id, Requested { at_ms: now_ms, peer: i });
        self.stats.requests_sent += 1;
        self.send_to(i, &Message::GetTxs(vec![id]), now_ms);
    }

    pub(super) fn request_if_unknown(&mut self, i: usize, id: TxId, now_ms: u64) {
        if self.wants(&id, now_ms) {
            self.request_tx(i, id, now_ms);
        }
    }

    /// A transaction arrived — from peer `from`, or from outside the
    /// gossip layer (`None`, see [`submit`](Self::submit)): attach it, or
    /// buffer it until its parents arrive. Its id was derived once, where
    /// it was decoded or admitted, and every step here reuses it.
    pub(super) fn ingest(
        &mut self,
        from: Option<usize>,
        tx: IdentifiedTx,
        attach_ms: u64,
        now_ms: u64,
    ) {
        let id = tx.id();
        self.seen.note(id.0, from);
        if tx.is_genesis() {
            self.ingest_genesis(from, &tx, now_ms);
            return;
        }
        let missing: Option<BTreeSet<TxId>> = {
            let t = self.lock_tangle();
            (!t.contains(&id)).then(|| {
                tx.parents()
                    .into_iter()
                    .filter(|p| *p != TxId::GENESIS_PARENT && !t.contains(p))
                    .collect()
            })
        };
        let Some(missing) = missing else {
            self.requested.remove(&id);
            self.stats.duplicates += 1;
            return;
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
        for parent in &missing {
            self.waiters.entry(*parent).or_default().push(id);
        }
        self.pending.insert(
            id,
            PendingTx { tx, attach_ms, missing: missing.clone(), seq: self.pending_seq },
        );
        self.pending_seq += 1;
        self.evict_if_full();
        for parent in missing {
            if !self.request_due(&parent, now_ms) {
                continue;
            }
            let target = match from {
                Some(i) => Some(i),
                None => self.pick_request_peer(&parent, None),
            };
            let Some(t) = target else { continue };
            self.request_tx(t, parent, now_ms);
        }
    }

    fn ingest_genesis(&mut self, from: Option<usize>, tx: &IdentifiedTx, now_ms: u64) {
        let claimed = tx.id();
        let rebuilt = {
            let mut t = self.lock_tangle();
            // A genesis is fully determined by (issuer, timestamp); rebuild
            // it locally so the id provably matches the peer's ledger.
            t.genesis()
                .is_none()
                .then(|| t.attach_genesis(tx.issuer, tx.timestamp_ms))
        };
        self.requested.remove(&claimed);
        let Some(rebuilt) = rebuilt else {
            self.stats.duplicates += 1;
            return;
        };
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
        tx: IdentifiedTx,
        attach_ms: u64,
        now_ms: u64,
    ) {
        let id = tx.id();
        self.requested.remove(&id);
        let result = self.lock_tangle().attach(tx, attach_ms);
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

    /// `satisfied` was just attached: attach every pending descendant
    /// whose last missing parent it was, cascading breadth-first.
    pub(super) fn resolve_waiters(&mut self, satisfied: TxId, now_ms: u64) {
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
                let result = self.lock_tangle().attach(p.tx, p.attach_ms);
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

    /// One anti-entropy round: the tips exchange and this node's credit
    /// watermarks with one rotated peer, and stale re-requests.
    pub(super) fn run_anti_entropy(&mut self, now_ms: u64) {
        let ready: Vec<usize> = (0..self.peers.len()).filter(|&i| self.peer_ready(i)).collect();
        if !ready.is_empty() {
            // Classic pairwise anti-entropy — ONE rotated peer per round,
            // cold or warm. Tips exchange with every peer every round
            // costs O(degree) frames per tick for a repair path that
            // rarely fires (handshakes already swap tips, and digest relay
            // covers live spread); rotation keeps the same eventual
            // coverage at a fraction of the wire cost.
            self.rr = self.rr.wrapping_add(1);
            let i = ready[self.rr % ready.len()];
            self.send_to(i, &Message::GetTips, now_ms);
        }
        if let Some(&i) = ready.get(self.rr % ready.len().max(1)) {
            self.advertise_credit(i, None, now_ms);
        }
        // Re-request parents still missing whose last request went stale
        // (e.g. the peer we asked died — or simply never answered).
        // Each retry goes to ONE peer, and a *different* one than last
        // time when any alternative is ready, so a stalled peer doesn't
        // get hammered while the rest of the mesh sits idle.
        let stale: BTreeSet<TxId> = self
            .pending
            .values()
            .flat_map(|p| p.missing.iter())
            .filter(|parent| self.request_due(parent, now_ms))
            .copied()
            .collect();
        for id in stale {
            let avoid = self.requested.get(&id).map(|r| r.peer);
            let Some(target) = self.pick_request_peer(&id, avoid) else { continue };
            self.request_tx(target, id, now_ms);
        }
    }
}
