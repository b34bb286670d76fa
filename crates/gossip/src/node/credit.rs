//! Credit-event relay (DESIGN §12.4). Every relayed event has one
//! identity, `(origin, seq)`, stamped by the node that first broadcasts
//! it. Each node keeps one [`OriginLog`] per origin — the single record
//! of what it has applied and can serve — and applies an origin's events
//! strictly in seq order, so a duplicate is exactly `seq < next`. Relay is
//! anti-entropy on those watermarks: a node advertises `origin → next`
//! ([`Message::CreditVersions`]) and a peer that is behind pulls the rest
//! ([`Message::GetCredit`]), one [`Message::CreditEvents`] frame per pull.

use super::{GossipNode, GossipStats};
use crate::wire::{Message, MAX_CREDIT_ORIGINS};
use biot_credit::{CreditEvent, CreditId};
use std::collections::{BTreeMap, VecDeque};

/// Credit events per `CreditEvents` frame, and so per pull.
pub(super) const CREDIT_EVENTS_PER_FRAME: usize = 512;
/// Cap on credit events waiting in the inbox for the owner to drain.
pub(super) const MAX_CREDIT_INBOX: usize = 65_536;
/// Events one origin's log keeps to serve pulls, oldest dropped first.
pub(super) const CREDIT_LOG: usize = 8_192;

/// One origin's events: `events[k]` has seq `base + k`, and every seq
/// below `next()` has been applied here.
#[derive(Debug, Default)]
pub(super) struct OriginLog {
    base: u64,
    events: VecDeque<CreditEvent>,
    pull: Option<Pull>,
}

/// The pull in flight for one origin: asked of `peer` at `at_ms`, stale
/// after `request_retry_ms`.
#[derive(Clone, Copy, Debug)]
struct Pull {
    peer: usize,
    at_ms: u64,
}

impl OriginLog {
    fn next(&self) -> u64 {
        self.base + self.events.len() as u64
    }

    fn push(&mut self, ev: CreditEvent) {
        if self.events.len() >= CREDIT_LOG {
            self.events.pop_front();
            self.base += 1;
        }
        self.events.push_back(ev);
    }
}

/// The log of `origin`, created unless [`MAX_CREDIT_ORIGINS`] are
/// already tracked (counted as refused).
fn origin_log<'a>(
    logs: &'a mut BTreeMap<u64, OriginLog>,
    stats: &mut GossipStats,
    origin: u64,
) -> Option<&'a mut OriginLog> {
    if !logs.contains_key(&origin) && logs.len() >= MAX_CREDIT_ORIGINS {
        stats.credit_origins_refused += 1;
        return None;
    }
    Some(logs.entry(origin).or_default())
}

impl GossipNode {
    /// The origin id this node stamps on the credit events it broadcasts,
    /// `seed.rotate_left(32) ^ node_id` (see
    /// [`GossipConfig`](super::GossipConfig)): nodes that broadcast credit
    /// must differ in one of them, and a restarted origin needs a fresh
    /// seed, or peers take its new events for old ones.
    pub fn credit_origin(&self) -> u64 {
        self.origin
    }

    /// `origin → next seq`: the events this node has applied.
    pub fn credit_watermarks(&self) -> BTreeMap<u64, u64> {
        self.credit.iter().map(|(&o, log)| (o, log.next())).collect()
    }

    /// Starts each origin's log at its watermark in `marks` (events the
    /// owner recovered from its store), so they are never pulled again.
    /// They are not served either: a peer asking gets a counted gap.
    pub fn seed_credit_watermarks(&mut self, marks: &BTreeMap<u64, u64>) {
        for (&origin, &next) in marks {
            let log = self.credit.entry(origin).or_default();
            if next > log.next() {
                *log = OriginLog { base: next, ..OriginLog::default() };
            }
        }
    }

    /// Broadcasts locally observed credit events, evidence that receivers
    /// fold into their own [`biot_credit::CreditLedger`]: each is stamped
    /// with this node's origin and the next seq, and advertised at the
    /// next digest flush.
    pub fn broadcast_credit_events(&mut self, events: &[CreditEvent], now_ms: u64) {
        let origin = self.origin;
        let Some(log) = origin_log(&mut self.credit, &mut self.stats, origin) else { return };
        for ev in events {
            log.push(*ev);
        }
        self.credit_moved(origin, now_ms);
    }

    fn credit_moved(&mut self, origin: u64, now_ms: u64) {
        self.credit_changed.insert(origin);
        self.arm_flush(now_ms);
    }

    /// Sends peer `i` the watermarks (of every origin, or of `moved`) it
    /// has not shown it holds. What a peer has shown — its adverts, pulls
    /// and events — it holds, so anti-entropy loses no repair by this.
    pub(super) fn advertise_credit(&mut self, i: usize, moved: Option<&[u64]>, now_ms: u64) {
        let known = &self.peers[i].credit_known;
        let entries: Vec<(u64, u64)> = self
            .credit
            .iter()
            .map(|(&o, log)| (o, log.next()))
            .filter(|&(o, next)| {
                moved.is_none_or(|m| m.contains(&o)) && known.get(&o).copied().unwrap_or(0) < next
            })
            .collect();
        let n = entries.len() as u64;
        if n > 0 && self.send_to(i, &Message::CreditVersions(entries), now_ms) {
            self.stats.credit_versions_sent += n;
        }
    }

    /// The digest-flush half: the origins that moved since the last flush.
    pub(super) fn flush_credit(&mut self, now_ms: u64) {
        let moved: Vec<u64> = std::mem::take(&mut self.credit_changed).into_iter().collect();
        for i in 0..self.peers.len() {
            if !moved.is_empty() && self.peer_ready(i) {
                self.advertise_credit(i, Some(&moved), now_ms);
            }
        }
    }

    /// Peer `i` has shown it holds `origin`'s events below `next`.
    fn peer_holds(&mut self, i: usize, origin: u64, next: u64) {
        let k = self.peers[i].credit_known.entry(origin).or_insert(0);
        *k = (*k).max(next);
    }

    /// Peer `i`'s watermarks: pull every origin it is ahead on, unless a
    /// fresh pull for it is in flight.
    pub(super) fn handle_credit_versions(&mut self, i: usize, entries: Vec<(u64, u64)>, now_ms: u64) {
        let retry_ms = self.cfg.request_retry_ms;
        let mut want = Vec::new();
        for (origin, next) in entries {
            self.peer_holds(i, origin, next);
            if origin == self.origin {
                continue; // this node is the authority on its own sequence
            }
            let Some(log) = origin_log(&mut self.credit, &mut self.stats, origin) else { continue };
            let fresh = log.pull.is_some_and(|p| now_ms.saturating_sub(p.at_ms) < retry_ms);
            if next > log.next() && !fresh {
                log.pull = Some(Pull { peer: i, at_ms: now_ms });
                want.push((origin, log.next()));
            }
        }
        self.request_credit(i, want, now_ms);
    }

    fn request_credit(&mut self, i: usize, want: Vec<(u64, u64)>, now_ms: u64) {
        if !want.is_empty() {
            self.stats.requests_sent += want.len() as u64;
            self.send_to(i, &Message::GetCredit(want), now_ms);
        }
    }

    /// Serves a pull: for each `(origin, from)`, one frame of events from
    /// `from` on. When the log no longer holds `from`, the frame starts at
    /// the oldest event held (empty when none is), so the requester counts
    /// the gap instead of asking forever.
    pub(super) fn serve_credit(&mut self, i: usize, entries: Vec<(u64, u64)>, now_ms: u64) {
        for (origin, from) in entries {
            self.peer_holds(i, origin, from);
            let Some(log) = self.credit.get(&origin).filter(|log| from < log.next()) else {
                continue;
            };
            let first = from.max(log.base);
            let skip = (first - log.base) as usize;
            let events: Vec<CreditEvent> =
                log.events.iter().skip(skip).take(CREDIT_EVENTS_PER_FRAME).copied().collect();
            let n = events.len() as u64;
            if self.send_to(i, &Message::CreditEvents { origin, first, events }, now_ms) {
                self.stats.credit_events_sent += n;
            }
        }
    }

    /// An answer to a pull: apply the events at and past the watermark in
    /// seq order, hand them to the owner, and continue the pull at the
    /// peer that has shown the most while the log lags it.
    pub(super) fn handle_credit_events(
        &mut self,
        i: usize,
        origin: u64,
        first: u64,
        events: Vec<CreditEvent>,
        now_ms: u64,
    ) {
        let n = events.len() as u64;
        self.stats.credit_events_received += n;
        let Some(end) = first.checked_add(n) else { return };
        self.peer_holds(i, origin, end);
        if origin == self.origin {
            self.stats.credit_events_deduped += n;
            return;
        }
        let room = MAX_CREDIT_INBOX.saturating_sub(self.credit_inbox.len());
        let Some(log) = origin_log(&mut self.credit, &mut self.stats, origin) else { return };
        if first > log.next() {
            if log.pull.is_none_or(|p| p.peer != i) {
                // Unasked and past the watermark: a later pull fetches it.
                self.stats.credit_events_dropped += n;
                return;
            }
            // The peer asked no longer holds what lies between: a counted
            // loss, never a silent one and never a second apply.
            self.stats.credit_gaps += first - log.next();
            *log = OriginLog { base: first, pull: log.pull, ..OriginLog::default() };
        }
        let mut applied = 0;
        for (k, ev) in events.into_iter().enumerate() {
            let seq = first + k as u64; // below `end`, so no overflow
            if seq < log.next() {
                self.stats.credit_events_deduped += 1;
            } else if applied == room {
                self.stats.credit_events_dropped += 1;
            } else {
                log.push(ev);
                self.credit_inbox.push((CreditId { origin, seq }, ev));
                applied += 1;
            }
        }
        let next = log.next();
        let answered = log.pull.is_some_and(|p| p.peer == i);
        if answered {
            log.pull = None;
        }
        if applied == 0 {
            return; // no progress (say, a full inbox): do not ping-pong
        }
        self.credit_moved(origin, now_ms);
        let shown = |j: usize| self.peers[j].credit_known.get(&origin).copied().unwrap_or(0);
        let ahead = (0..self.peers.len()).filter(|&j| self.peer_ready(j)).max_by_key(|&j| shown(j));
        if let Some(j) = ahead.filter(|&j| answered && shown(j) > next) {
            let log = self.credit.get_mut(&origin).expect("this origin's log was used above");
            log.pull = Some(Pull { peer: j, at_ms: now_ms });
            self.request_credit(j, vec![(origin, next)], now_ms);
        }
    }
}
