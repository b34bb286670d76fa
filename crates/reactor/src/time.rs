//! Time for event loops: one [`Clock`] trait over wall and virtual time,
//! plus the [`DeadlineQueue`] that turns "check every tick" work into
//! explicit timers.
//!
//! Before this module the codebase threaded three time sources around:
//! `biot-ingest`'s `MonotonicClock` (an `Instant` anchor, since folded
//! into [`WallClock`]), the gossip
//! tests' `VirtualClock` (a shared atomic the test advances by hand), and
//! raw `now_ms: u64` arguments plumbed through every `poll` signature.
//! They never meet: runtime code written against one cannot run under
//! another. The [`Clock`] trait collapses them — identical event-loop
//! code blocks on wall time in production and jumps straight to the next
//! deadline under a [`VirtualClock`] in seeded simulations.
//!
//! The [`DeadlineQueue`] is the other half of not spinning: a subsystem
//! that used to compare `now_ms` against private `next_*_ms` fields every
//! tick instead schedules keyed deadlines here, and the owning loop
//! sleeps until `next_deadline()`. Keys are caller-defined and `Ord`;
//! ties at one instant pop in key order, keeping replays deterministic.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A monotone millisecond clock an event loop can run against.
///
/// Implementations are either *wall* clocks (time advances on its own;
/// the loop blocks in the poller to pass it) or *virtual* clocks (time
/// advances only when the driver says so; the loop never blocks and
/// instead jumps to the next deadline).
pub trait Clock {
    /// Current time in milliseconds. Monotone non-decreasing.
    fn now_ms(&self) -> u64;

    /// True when time only moves via [`Clock::advance_to`] — the loop
    /// must not block waiting for it to pass.
    fn is_virtual(&self) -> bool {
        false
    }

    /// Jumps a virtual clock forward to `ms` (no-op on wall clocks,
    /// which cannot be steered). Never moves time backwards.
    fn advance_to(&self, ms: u64) {
        let _ = ms;
    }
}

/// Wall time: milliseconds since construction, backed by [`Instant`].
#[derive(Clone, Debug)]
pub struct WallClock {
    origin: Instant,
}

impl WallClock {
    /// A clock whose zero is *now*.
    pub fn new() -> Self {
        Self { origin: Instant::now() }
    }

    /// Whole milliseconds in `elapsed`, truncated: what
    /// [`Clock::now_ms`] reports once `elapsed` has passed since
    /// construction. Sub-millisecond jitter never reaches a caller.
    pub fn millis_of(elapsed: Duration) -> u64 {
        elapsed.as_millis() as u64
    }
}

impl Default for WallClock {
    fn default() -> Self {
        Self::new()
    }
}

impl Clock for WallClock {
    fn now_ms(&self) -> u64 {
        Self::millis_of(self.origin.elapsed())
    }
}

/// A shared virtual clock in milliseconds. Tests and simulators advance
/// it explicitly; everything holding a clone observes the jump at once.
/// No wall-clock dependence anywhere.
#[derive(Clone, Debug, Default)]
pub struct VirtualClock(Arc<AtomicU64>);

impl VirtualClock {
    /// A clock starting at 0 ms.
    pub fn new() -> Self {
        Self::default()
    }

    /// Current virtual time, ms.
    pub fn now_ms(&self) -> u64 {
        self.0.load(Ordering::SeqCst)
    }

    /// Moves time forward.
    pub fn advance(&self, ms: u64) {
        self.0.fetch_add(ms, Ordering::SeqCst);
    }

    /// Jumps to an absolute instant (monotone use is the caller's job).
    pub fn set(&self, ms: u64) {
        self.0.store(ms, Ordering::SeqCst);
    }
}

impl Clock for VirtualClock {
    fn now_ms(&self) -> u64 {
        VirtualClock::now_ms(self)
    }

    fn is_virtual(&self) -> bool {
        true
    }

    fn advance_to(&self, ms: u64) {
        self.0.fetch_max(ms, Ordering::SeqCst);
    }
}

/// A deterministic deadline queue: each key holds at most one pending
/// deadline; rescheduling a key moves it. Same-instant deadlines pop in
/// key order, so a seeded replay fires timers in one canonical sequence.
#[derive(Clone, Debug, Default)]
pub struct DeadlineQueue<K: Ord + Copy> {
    due: BTreeSet<(u64, K)>,
    at: BTreeMap<K, u64>,
}

impl<K: Ord + Copy> DeadlineQueue<K> {
    /// An empty queue.
    pub fn new() -> Self {
        Self { due: BTreeSet::new(), at: BTreeMap::new() }
    }

    /// Schedules (or moves) `key` to fire at `at_ms`.
    pub fn schedule(&mut self, key: K, at_ms: u64) {
        if let Some(prev) = self.at.insert(key, at_ms) {
            self.due.remove(&(prev, key));
        }
        self.due.insert((at_ms, key));
    }

    /// Drops `key`'s pending deadline, if any.
    pub fn cancel(&mut self, key: &K) {
        if let Some(prev) = self.at.remove(key) {
            self.due.remove(&(prev, *key));
        }
    }

    /// When `key` currently fires, if scheduled.
    pub fn deadline_of(&self, key: &K) -> Option<u64> {
        self.at.get(key).copied()
    }

    /// The earliest pending deadline across all keys.
    pub fn next_deadline(&self) -> Option<u64> {
        self.due.first().map(|&(at, _)| at)
    }

    /// Pops the earliest key whose deadline is `<= now_ms`, or `None`
    /// when nothing is due yet. Call in a loop to drain everything due.
    pub fn pop_due(&mut self, now_ms: u64) -> Option<K> {
        let &(at, key) = self.due.first()?;
        if at > now_ms {
            return None;
        }
        self.due.pop_first();
        self.at.remove(&key);
        Some(key)
    }

    /// Number of pending deadlines.
    pub fn len(&self) -> usize {
        self.due.len()
    }

    /// True when nothing is scheduled.
    pub fn is_empty(&self) -> bool {
        self.due.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wall_clock_is_monotone_and_not_virtual() {
        let c = WallClock::new();
        let a = c.now_ms();
        let b = c.now_ms();
        assert!(b >= a);
        assert!(!c.is_virtual());
        c.advance_to(1_000_000); // no-op, must not steer wall time
        assert!(c.now_ms() < 1_000_000);
    }

    #[test]
    fn virtual_clock_jumps_but_never_rewinds() {
        let c = VirtualClock::new();
        assert!(c.is_virtual());
        Clock::advance_to(&c, 500);
        assert_eq!(Clock::now_ms(&c), 500);
        Clock::advance_to(&c, 100); // backwards jump ignored
        assert_eq!(Clock::now_ms(&c), 500);
        c.advance(50);
        assert_eq!(c.now_ms(), 550);
    }

    #[test]
    fn deadline_queue_pops_in_time_then_key_order() {
        let mut q: DeadlineQueue<u8> = DeadlineQueue::new();
        q.schedule(3, 100);
        q.schedule(1, 100);
        q.schedule(2, 50);
        assert_eq!(q.next_deadline(), Some(50));
        assert_eq!(q.pop_due(49), None, "nothing due yet");
        assert_eq!(q.pop_due(100), Some(2));
        assert_eq!(q.pop_due(100), Some(1), "ties break by key order");
        assert_eq!(q.pop_due(100), Some(3));
        assert_eq!(q.pop_due(100), None);
        assert!(q.is_empty());
    }

    #[test]
    fn reschedule_moves_and_cancel_drops() {
        let mut q: DeadlineQueue<u8> = DeadlineQueue::new();
        q.schedule(1, 100);
        q.schedule(1, 30); // moved earlier, not duplicated
        assert_eq!(q.len(), 1);
        assert_eq!(q.deadline_of(&1), Some(30));
        q.schedule(2, 40);
        q.cancel(&1);
        assert_eq!(q.next_deadline(), Some(40));
        q.cancel(&9); // unknown key: no-op
        assert_eq!(q.pop_due(40), Some(2));
    }
}
